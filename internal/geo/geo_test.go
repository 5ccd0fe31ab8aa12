package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(4, 6)
	if d := p.Dist(q); !almost(d, 5) {
		t.Errorf("Dist = %v, want 5", d)
	}
	if v := q.Sub(p); !almost(v.X, 3) || !almost(v.Y, 4) {
		t.Errorf("Sub = %v", v)
	}
	if r := p.Add(Vec{X: 3, Y: 4}); r != q {
		t.Errorf("Add = %v, want %v", r, q)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := p.Lerp(q, 0.5); !almost(got.X, 5) || !almost(got.Y, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestVec(t *testing.T) {
	v := Vec{X: 3, Y: 4}
	if !almost(v.Len(), 5) {
		t.Errorf("Len = %v", v.Len())
	}
	u := v.Unit()
	if !almost(u.Len(), 1) {
		t.Errorf("Unit length = %v", u.Len())
	}
	if z := (Vec{}).Unit(); z.X != 0 || z.Y != 0 {
		t.Errorf("zero Unit = %v", z)
	}
	if s := v.Scale(2); !almost(s.X, 6) || !almost(s.Y, 8) {
		t.Errorf("Scale = %v", s)
	}
}

func TestHeading(t *testing.T) {
	if h := Heading(0); !almost(h.X, 1) || !almost(h.Y, 0) {
		t.Errorf("Heading(0) = %v", h)
	}
	if h := Heading(math.Pi / 2); !almost(h.X, 0) || !almost(h.Y, 1) {
		t.Errorf("Heading(pi/2) = %v", h)
	}
	f := func(rad float64) bool {
		if math.IsNaN(rad) || math.IsInf(rad, 0) {
			return true
		}
		return almost(Heading(rad).Len(), 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := Arena(100, 50)
	if !almost(r.Width(), 100) || !almost(r.Height(), 50) {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if c := r.Center(); !almost(c.X, 50) || !almost(c.Y, 25) {
		t.Errorf("Center = %v", c)
	}
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(100, 50)) || r.Contains(Pt(101, 0)) {
		t.Error("Contains edge cases wrong")
	}
	if p := r.Clamp(Pt(-5, 70)); p != Pt(0, 50) {
		t.Errorf("Clamp = %v", p)
	}
	if p := r.Clamp(Pt(30, 30)); p != Pt(30, 30) {
		t.Errorf("Clamp moved interior point: %v", p)
	}
}

func TestRandPointInside(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Rect{Min: Pt(10, 20), Max: Pt(30, 25)}
	for i := 0; i < 1000; i++ {
		p := r.RandPoint(rng)
		if !r.Contains(p) {
			t.Fatalf("RandPoint outside rect: %v", p)
		}
	}
}

func TestClampAlwaysInside(t *testing.T) {
	r := Arena(100, 100)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		return r.Contains(r.Clamp(Pt(x, y)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	arena := Arena(1000, 1000)
	for i := 0; i < 500; i++ {
		a, b, c := arena.RandPoint(rng), arena.RandPoint(rng), arena.RandPoint(rng)
		if !almost(a.Dist(b), b.Dist(a)) {
			t.Fatal("Dist not symmetric")
		}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatal("triangle inequality violated")
		}
	}
}

func TestCellOf(t *testing.T) {
	cases := []struct {
		p    Point
		side float64
		want Cell
	}{
		{Pt(0, 0), 100, Cell{0, 0}},
		{Pt(99.999, 99.999), 100, Cell{0, 0}},
		{Pt(100, 0), 100, Cell{1, 0}}, // boundary belongs to the higher cell
		{Pt(0, 100), 100, Cell{0, 1}},
		{Pt(-0.001, 0), 100, Cell{-1, 0}}, // negative coords bucket consistently
		{Pt(-100, -100), 100, Cell{-1, -1}},
		{Pt(-100.001, 0), 100, Cell{-2, 0}},
		{Pt(250, -50), 100, Cell{2, -1}},
	}
	for _, c := range cases {
		if got := CellOf(c.p, c.side); got != c.want {
			t.Errorf("CellOf(%v, %v) = %+v, want %+v", c.p, c.side, got, c.want)
		}
	}
}
