package main

import "fixture/internal/lib"

func main() {
	_ = lib.NewDev()
	var s lib.Stack[int]
	s.Push(1)
	_ = lib.Opts{Set: lib.Total()}
}
