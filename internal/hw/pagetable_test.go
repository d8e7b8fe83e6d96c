package hw

import (
	"math/rand"
	"testing"
)

// TestAddrSpaceMatchesMapOracle drives seeded random Map, MapRange, Unmap,
// Invalidate, InvalidateWhere and Clear calls over page numbers that cross
// chunk boundaries and jump between far-apart chunks, and after every call
// holds Lookup and Translate on the pages near it, and Gen, to a plain map
// of entries — the table the chunks replaced.
func TestAddrSpaceMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := NewAddrSpace("oracle")
	oracle := make(map[uint64]PTE)
	bases := []uint64{0, chunkPages - 3, 5 * chunkPages, 1 << 40, 1<<52 - 2}
	vpnNear := func() uint64 { return bases[rng.Intn(len(bases))] + uint64(rng.Intn(8)) }
	perms := []Perm{PermR, PermW, PermRW, PermR | PermX}
	check := func(step int, vpn uint64) {
		t.Helper()
		for v := vpn - 2; v != vpn+3; v++ {
			want, wok := oracle[v]
			got, gok := a.Lookup(v)
			if gok != wok || got != want {
				t.Fatalf("step %d: Lookup(%#x) = %+v, %v; oracle %+v, %v", step, v, got, gok, want, wok)
			}
			for _, perm := range perms {
				pfn, f := a.Translate(v, perm)
				switch {
				case !wok:
					if f == nil || f.Kind != FaultUnmapped {
						t.Fatalf("step %d: Translate(%#x) of a hole = %d, %v", step, v, pfn, f)
					}
				case !want.Valid:
					if f == nil || f.Kind != FaultInvalidated {
						t.Fatalf("step %d: Translate(%#x) of an invalidated page = %d, %v", step, v, pfn, f)
					}
				case want.Perm&perm != perm:
					if f == nil || f.Kind != FaultPerm {
						t.Fatalf("step %d: Translate(%#x, %b) without the permission = %d, %v", step, v, perm, pfn, f)
					}
				default:
					if f != nil || pfn != want.Frame {
						t.Fatalf("step %d: Translate(%#x) = %d, %v; oracle frame %d", step, v, pfn, f, want.Frame)
					}
				}
			}
		}
	}
	for step := 0; step < 5000; step++ {
		vpn := vpnNear()
		gen := a.Gen()
		bumped := true
		switch op := rng.Intn(20); {
		case op < 8:
			pte := PTE{Frame: rng.Uint64() >> 12, Perm: perms[rng.Intn(len(perms))], Valid: true}
			a.Map(vpn, pte.Frame, pte.Perm)
			oracle[vpn] = pte
		case op < 10:
			n := 1 + rng.Intn(2*chunkPages)
			pfn, perm := rng.Uint64()>>12, perms[rng.Intn(len(perms))]
			a.MapRange(vpn, pfn, n, perm)
			for i := 0; i < n; i++ {
				oracle[vpn+uint64(i)] = PTE{Frame: pfn + uint64(i), Perm: perm, Valid: true}
			}
		case op < 14:
			a.Unmap(vpn)
			delete(oracle, vpn)
		case op < 18:
			a.Invalidate(vpn)
			e, ok := oracle[vpn]
			if ok {
				e.Valid = false
				oracle[vpn] = e
			}
			bumped = ok
		case op < 19:
			mod := uint64(2 + rng.Intn(5))
			pred := func(_, pfn uint64) bool { return pfn%mod == 0 }
			want := 0
			for v, e := range oracle {
				if e.Valid && pred(v, e.Frame) {
					e.Valid = false
					oracle[v] = e
					want++
				}
			}
			if got := a.InvalidateWhere(pred); got != want {
				t.Fatalf("step %d: InvalidateWhere invalidated %d, oracle %d", step, got, want)
			}
			bumped = want > 0
		default:
			if rng.Intn(10) == 0 {
				a.Clear()
				oracle = make(map[uint64]PTE)
			} else {
				bumped = false
			}
		}
		if changed := a.Gen() != gen; changed != bumped {
			t.Fatalf("step %d: Gen changed %v, want %v", step, changed, bumped)
		}
		check(step, vpn)
	}
}
