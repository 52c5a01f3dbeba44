package topology

import (
	"testing"

	"closnet/internal/rational"
)

func TestNewGeneralClosShape(t *testing.T) {
	tests := []struct {
		tors, servers, middles int
	}{
		{1, 1, 1},
		{3, 2, 5},
		{4, 1, 7},
		{2, 5, 2},
	}
	for _, tt := range tests {
		c, err := NewGeneralClos(tt.tors, tt.servers, tt.middles)
		if err != nil {
			t.Fatalf("(%d,%d,%d): %v", tt.tors, tt.servers, tt.middles, err)
		}
		if c.NumToRs() != tt.tors || c.ServersPerToR() != tt.servers || c.Size() != tt.middles {
			t.Fatalf("shape accessors disagree: %d %d %d", c.NumToRs(), c.ServersPerToR(), c.Size())
		}
		net := c.Network()
		wantNodes := 2*tt.tors + tt.middles + 2*tt.tors*tt.servers
		if got := net.NumNodes(); got != wantNodes {
			t.Errorf("nodes = %d, want %d", got, wantNodes)
		}
		wantLinks := 2*tt.tors*tt.servers + 2*tt.tors*tt.middles
		if got := net.NumLinks(); got != wantLinks {
			t.Errorf("links = %d, want %d", got, wantLinks)
		}
	}
}

func TestNewGeneralClosRejectsBadShapes(t *testing.T) {
	for _, tt := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		if _, err := NewGeneralClos(tt[0], tt[1], tt[2]); err == nil {
			t.Errorf("shape %v accepted", tt)
		}
	}
}

func TestSquareClosIsSpecialCase(t *testing.T) {
	square := MustClos(3)
	general, err := NewGeneralClos(6, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if square.Network().NumNodes() != general.Network().NumNodes() ||
		square.Network().NumLinks() != general.Network().NumLinks() {
		t.Error("NewClos(3) and NewGeneralClos(6,3,3) differ structurally")
	}
	if square.Network().Name() != "C_3" {
		t.Errorf("square name = %q", square.Network().Name())
	}
	if general.Network().Name() != "C_3" {
		t.Errorf("general square name = %q", general.Network().Name())
	}
	rect, err := NewGeneralClos(3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rect.Network().Name() != "C(3x2x5)" {
		t.Errorf("rect name = %q", rect.Network().Name())
	}
}

func TestGeneralClosPathsPerMiddle(t *testing.T) {
	c, err := NewGeneralClos(3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := c.Source(1, 2), c.Dest(3, 1)
	for m := 1; m <= 5; m++ {
		p, err := c.Path(src, dst, m)
		if err != nil {
			t.Fatalf("middle %d: %v", m, err)
		}
		if err := p.Validate(c.Network(), src, dst); err != nil {
			t.Fatalf("middle %d: %v", m, err)
		}
	}
	if _, err := c.Path(src, dst, 6); err == nil {
		t.Error("out-of-range middle accepted")
	}
}

func TestGeneralClosIndexRoundTrip(t *testing.T) {
	c, err := NewGeneralClos(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 3; j++ {
			si, sj, ok := c.SourceIndexOf(c.Source(i, j))
			if !ok || si != i || sj != j {
				t.Errorf("SourceIndexOf(Source(%d,%d)) = (%d,%d,%v)", i, j, si, sj, ok)
			}
			di, dj, ok := c.DestIndexOf(c.Dest(i, j))
			if !ok || di != i || dj != j {
				t.Errorf("DestIndexOf(Dest(%d,%d)) = (%d,%d,%v)", i, j, di, dj, ok)
			}
		}
	}
	if _, _, ok := c.SourceIndexOf(c.Dest(1, 1)); ok {
		t.Error("SourceIndexOf accepted a destination")
	}
	if _, _, ok := c.DestIndexOf(c.Middle(1)); ok {
		t.Error("DestIndexOf accepted a switch")
	}
}

// TestExtraMiddlesAddCapacity: with more middle switches than servers
// per ToR, an all-to-one-ToR unit workload becomes link-disjointly
// routable.
func TestExtraMiddlesAddCapacity(t *testing.T) {
	// 2 ToRs, 3 servers each, 3 middles: three unit flows I1 -> O2 fit
	// on distinct middles.
	c, err := NewGeneralClos(2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := c.Network()
	for m := 1; m <= 3; m++ {
		p, err := c.Path(c.Source(1, m), c.Dest(2, m), m)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(net, c.Source(1, m), c.Dest(2, m)); err != nil {
			t.Fatal(err)
		}
	}
	// All fabric links unit capacity.
	for _, l := range net.Links() {
		if l.Capacity.Cmp(rational.One()) != 0 {
			t.Fatalf("link %s not unit", net.LinkName(l.ID))
		}
	}
}

func TestBisectionHelpers(t *testing.T) {
	square := MustClos(3)
	if !FullBisection(square) || BisectionGap(square) != 0 {
		t.Error("square Clos should be exactly full bisection")
	}
	over, err := NewGeneralClos(4, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if FullBisection(over) || BisectionGap(over) != 2 {
		t.Errorf("oversubscribed fabric misclassified: gap=%d", BisectionGap(over))
	}
	if got := OversubscriptionRatio(over); got != "5:3" {
		t.Errorf("ratio = %q, want 5:3", got)
	}
	under, err := NewGeneralClos(4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !FullBisection(under) || BisectionGap(under) != -1 {
		t.Errorf("under-subscribed fabric misclassified: gap=%d", BisectionGap(under))
	}
}

// lookupPath is the reference Clos path: the four hops resolved
// through the network's endpoint map, as Path computed them before it
// derived link IDs from the construction order.
func lookupPath(t *testing.T, c *Clos, src, dst NodeID, m int) Path {
	t.Helper()
	i, _ := c.InputOf(src)
	o, _ := c.OutputOf(dst)
	hops := [][2]NodeID{
		{src, c.Input(i)},
		{c.Input(i), c.Middle(m)},
		{c.Middle(m), c.Output(o)},
		{c.Output(o), dst},
	}
	p := make(Path, 0, len(hops))
	for _, h := range hops {
		id, ok := c.Network().LinkBetween(h[0], h[1])
		if !ok {
			t.Fatalf("missing link %d->%d", h[0], h[1])
		}
		p = append(p, id)
	}
	return p
}

// TestClosPathMatchesLinkLookup: the arithmetic Clos.Path returns the
// LinkBetween walk's link IDs for every (src, dst, m) on C_1–C_4,
// general shapes and oversubscribed fabrics.
func TestClosPathMatchesLinkLookup(t *testing.T) {
	var nets []*Clos
	for n := 1; n <= 4; n++ {
		nets = append(nets, MustClos(n))
	}
	for _, sh := range [][3]int{{1, 1, 1}, {3, 2, 5}, {4, 1, 7}, {2, 3, 1}, {5, 4, 2}} {
		c, err := NewGeneralClos(sh[0], sh[1], sh[2])
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, c)
	}
	for _, r := range [][4]int{{4, 4, 2, 1}, {3, 6, 3, 2}, {2, 2, 1, 1}} {
		c, err := NewOversubscribedClos(r[0], r[1], r[2], r[3])
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, c)
	}
	for _, c := range nets {
		paths := 0
		for si := 1; si <= c.NumToRs(); si++ {
			for sj := 1; sj <= c.ServersPerToR(); sj++ {
				for di := 1; di <= c.NumToRs(); di++ {
					for dj := 1; dj <= c.ServersPerToR(); dj++ {
						src, dst := c.Source(si, sj), c.Dest(di, dj)
						for m := 1; m <= c.Size(); m++ {
							got, err := c.Path(src, dst, m)
							if err != nil {
								t.Fatal(err)
							}
							want := lookupPath(t, c, src, dst, m)
							if len(got) != len(want) {
								t.Fatalf("%s: path %d->%d via %d = %v, want %v", c.Network().Name(), src, dst, m, got, want)
							}
							for h := range want {
								if got[h] != want[h] {
									t.Fatalf("%s: path %d->%d via %d = %v, want %v", c.Network().Name(), src, dst, m, got, want)
								}
							}
							paths++
						}
					}
				}
			}
		}
		if want := c.NumToRs() * c.ServersPerToR() * c.NumToRs() * c.ServersPerToR() * c.Size(); paths != want {
			t.Fatalf("%s: checked %d paths, want %d", c.Network().Name(), paths, want)
		}
	}
}
