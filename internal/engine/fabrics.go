package engine

import (
	"sync"

	"closnet/internal/topology"
)

// maxFabrics bounds the number of shapes the fabric table retains.
// Past the cap the oldest shape is dropped FIFO and its next request
// rebuilds it. Serving traffic reuses a handful of shapes, so a small
// cap captures all the reuse.
const maxFabrics = 64

// maxFabricLinks bounds the size of a retained fabric: a larger one is
// built for its request and not kept, so the table's memory is bounded
// by maxFabrics × maxFabricLinks links whatever shapes clients send.
const maxFabricLinks = 1 << 16

// fabricKey is a topology shape. The family is in canonical spelling
// ("" for Clos).
type fabricKey struct {
	family                 string
	tors, servers, middles int
}

// fabricTable shares built fabrics across requests of the same shape.
// Networks are immutable after build (topology.Network), and every
// Fabric method only reads them, so one instance serves any number of
// concurrent requests. Building a C_8 fabric costs more than the water
// filling on it, which a cold evaluate would otherwise pay per request.
type fabricTable struct {
	mu    sync.Mutex
	m     map[fabricKey]topology.Fabric
	order []fabricKey // insertion order, for FIFO eviction
}

func newFabricTable() *fabricTable {
	return &fabricTable{m: make(map[fabricKey]topology.Fabric)}
}

// get returns the fabric of the given family and shape, building it on
// a miss. The build runs outside the lock; when two callers race on
// the same new shape, the first to insert wins and both get its
// instance, so the table never holds two fabrics for one shape.
func (t *fabricTable) get(family string, tors, servers, middles int) (topology.Fabric, error) {
	if family == topology.FamilyClos {
		family = ""
	}
	key := fabricKey{family, tors, servers, middles}
	t.mu.Lock()
	fab, ok := t.m[key]
	t.mu.Unlock()
	if ok {
		return fab, nil
	}
	fab, err := topology.BuildFamily(family, tors, servers, middles)
	if err != nil {
		return nil, err
	}
	if fab.Network().NumLinks() > maxFabricLinks {
		return fab, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if won, ok := t.m[key]; ok {
		return won, nil
	}
	if len(t.order) >= maxFabrics {
		delete(t.m, t.order[0])
		t.order = t.order[1:]
	}
	t.m[key] = fab
	t.order = append(t.order, key)
	return fab, nil
}
