// Package geo provides the 2-D geometry primitives shared by the PHY and
// mobility models: points in metres, distances, and simple interpolation.
package geo

import "math"

// Point is a position on the plane, in metres.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance between p and q in metres.
func (p Point) Distance(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Add returns p translated by v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// Vector is a displacement on the plane, in metres.
type Vector struct {
	X, Y float64
}

// Scale returns v scaled by k.
func (v Vector) Scale(k float64) Vector { return Vector{v.X * k, v.Y * k} }

// Length returns the magnitude of v in metres.
func (v Vector) Length() float64 { return math.Hypot(v.X, v.Y) }

// Unit returns the unit vector in the direction of v. The zero vector maps
// to the zero vector.
func (v Vector) Unit() Vector {
	l := v.Length()
	if l == 0 {
		return Vector{}
	}
	return Vector{v.X / l, v.Y / l}
}

// Lerp linearly interpolates from a to b; t=0 yields a and t=1 yields b.
func Lerp(a, b Point, t float64) Point {
	return Point{a.X + (b.X-a.X)*t, a.Y + (b.Y-a.Y)*t}
}
