// Command cronus-loc prints the Table III TCB accounting: lines of code per
// mOS / mEnclave component, counted from this repository's sources,
// alongside the monolithic total a single-TEE-OS design would carry. It then
// prints the same count for every package in the tree — the yardstick
// EXPERIMENTS.md records before and after each simplification PR.
package main

import (
	"fmt"
	"os"

	"cronus/internal/experiments"
)

func main() {
	t, err := experiments.Table3()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cronus-loc: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(t.String())
	pkgs, err := experiments.PackageLoC()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cronus-loc: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n%s", pkgs.String())
}
