package olsr

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// TestTableMatchesMap drives random put/get/delete/retain sequences
// through a table and a map reference. After every op the table's keys
// must strictly ascend and its contents equal the map's.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec // test
		var tab table[int]
		ref := map[addr.Node]int{}
		key := func() addr.Node { return addr.NodeAt(rng.Intn(24)) }
		for step := range 200 {
			switch r := rng.Intn(10); {
			case r < 4:
				k, v := key(), rng.Intn(1000)
				p := tab.put(k)
				if want := ref[k]; *p != want {
					t.Fatalf("seed %d step %d: put(%v) found %d, want %d", seed, step, k, *p, want)
				}
				*p = v
				ref[k] = v
			case r < 6:
				k := key()
				p := tab.get(k)
				want, ok := ref[k]
				if (p != nil) != ok || (ok && *p != want) {
					t.Fatalf("seed %d step %d: get(%v) = %v, want %d (present %v)", seed, step, k, p, want, ok)
				}
			case r < 8:
				k := key()
				tab.delete(k)
				delete(ref, k)
			default:
				mod := rng.Intn(3) + 2
				tab.retain(func(k addr.Node, v *int) bool {
					if *v%mod == 0 {
						return false
					}
					*v++
					return true
				})
				for k, v := range ref {
					if v%mod == 0 {
						delete(ref, k)
					} else {
						ref[k] = v + 1
					}
				}
			}
			if !ordered(tab) {
				t.Fatalf("seed %d step %d: keys out of order: %v", seed, step, tab)
			}
			if len(tab) != len(ref) {
				t.Fatalf("seed %d step %d: %d entries, the map holds %d", seed, step, len(tab), len(ref))
			}
			for _, e := range tab {
				if v, ok := ref[e.key]; !ok || v != e.val {
					t.Fatalf("seed %d step %d: entry %v=%d, the map holds %d (present %v)", seed, step, e.key, e.val, v, ok)
				}
			}
		}
	}
}
