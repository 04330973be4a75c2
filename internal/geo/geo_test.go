package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDistance(t *testing.T) {
	if d := (Point{0, 0}).Distance(Point{3, 4}); !almostEqual(d, 5) {
		t.Fatalf("distance = %v, want 5", d)
	}
	if d := (Point{1, 1}).Distance(Point{1, 1}); d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
}

func TestVectorOps(t *testing.T) {
	v := Point{5, 7}.Sub(Point{2, 3})
	if v != (Vector{3, 4}) {
		t.Fatalf("Sub = %v", v)
	}
	if !almostEqual(v.Length(), 5) {
		t.Fatalf("Length = %v", v.Length())
	}
	u := v.Unit()
	if !almostEqual(u.Length(), 1) {
		t.Fatalf("Unit length = %v", u.Length())
	}
	if (Vector{}).Unit() != (Vector{}) {
		t.Fatal("zero vector Unit should be zero")
	}
	p := Point{1, 1}.Add(v.Scale(2))
	if p != (Point{7, 9}) {
		t.Fatalf("Add/Scale = %v", p)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if Lerp(a, b, 0) != a || Lerp(a, b, 1) != b {
		t.Fatal("Lerp endpoints wrong")
	}
	mid := Lerp(a, b, 0.5)
	if !almostEqual(mid.X, 5) || !almostEqual(mid.Y, 10) {
		t.Fatalf("Lerp midpoint = %v", mid)
	}
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestPropertyMetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		if !almostEqual(a.Distance(b), b.Distance(a)) {
			return false
		}
		return a.Distance(c) <= a.Distance(b)+b.Distance(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
