package engine

import (
	"sync"
	"testing"

	"closnet/internal/topology"
)

// TestFabricTableOneInstancePerShape: concurrent callers asking for the
// same shape all get one instance — "clos" and "" are one family — and
// distinct shapes get distinct instances.
func TestFabricTableOneInstancePerShape(t *testing.T) {
	ft := newFabricTable()
	const callers = 16
	got := make([]topology.Fabric, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			family := ""
			if g%2 == 1 {
				family = topology.FamilyClos
			}
			fab, err := ft.get(family, 4, 2, 2)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = fab
		}(g)
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if got[g] != got[0] {
			t.Fatalf("caller %d got a second instance of one shape", g)
		}
	}
	other, err := ft.get("", 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0] {
		t.Fatal("two shapes share one fabric")
	}
	fat, err := ft.get(topology.FamilyFatTree, 8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := ft.get(topology.FamilyFatTree, 8, 2, 4); again != fat {
		t.Fatal("fat-tree shape rebuilt on a hit")
	}
	if _, err := ft.get(topology.FamilyFatTree, 8, 2, 5); err == nil {
		t.Fatal("inconsistent fat-tree shape accepted")
	}
}

// TestFabricTableBounded: more distinct shapes than maxFabrics, from
// concurrent callers, leave at most maxFabrics resident, evicting the
// oldest first; a fabric over maxFabricLinks is built but not kept.
func TestFabricTableBounded(t *testing.T) {
	ft := newFabricTable()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < maxFabrics; i++ {
				if _, err := ft.get("", 1+g, 1, 1+i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ft.mu.Lock()
	resident, order := len(ft.m), len(ft.order)
	ft.mu.Unlock()
	if resident != maxFabrics || order != maxFabrics {
		t.Fatalf("table holds %d fabrics (%d in FIFO order), bound is %d", resident, order, maxFabrics)
	}

	first, err := ft.get("", 9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxFabrics; i++ {
		if _, err := ft.get("", 10, 1, 1+i); err != nil {
			t.Fatal(err)
		}
	}
	if again, _ := ft.get("", 9, 1, 1); again == first {
		t.Fatal("oldest shape survived a full FIFO turn")
	}

	// 2·tors·servers + 2·tors·middles links: 2·128·1 + 2·128·256 > 1<<16.
	big, err := ft.get("", 128, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if n := big.Network().NumLinks(); n <= maxFabricLinks {
		t.Fatalf("test shape has %d links, want more than %d", n, maxFabricLinks)
	}
	ft.mu.Lock()
	_, kept := ft.m[fabricKey{"", 128, 1, 256}]
	ft.mu.Unlock()
	if kept {
		t.Fatalf("fabric over %d links retained", maxFabricLinks)
	}
}
