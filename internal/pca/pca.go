// Package pca implements principal component analysis, the off-line
// dimensionality-reduction baseline the paper compares random projections
// against in Table II (row PCA-PC, following Ceylan & Ozbay's use of PCA for
// ECG beat classification).
//
// The eigendecomposition uses the cyclic Jacobi method, which is simple,
// numerically robust for symmetric matrices, and entirely stdlib.
package pca

import (
	"errors"
	"fmt"
	"math"
)

// Projection is a fitted PCA transform: center on Mean, then project onto
// the top-K principal components.
type Projection struct {
	Mean       []float64   // length D
	Components [][]float64 // K rows of length D, orthonormal
	Variances  []float64   // eigenvalues of the K retained components
}

// Fit computes the top-k principal components of the data (rows are
// observations of equal length).
func Fit(data [][]float64, k int) (*Projection, error) {
	if len(data) < 2 {
		return nil, errors.New("pca: need at least 2 observations")
	}
	d := len(data[0])
	if d == 0 {
		return nil, errors.New("pca: empty observations")
	}
	if k <= 0 || k > d {
		return nil, fmt.Errorf("pca: k=%d outside [1, %d]", k, d)
	}
	for i, row := range data {
		if len(row) != d {
			return nil, fmt.Errorf("pca: row %d has length %d, want %d", i, len(row), d)
		}
	}
	mean := make([]float64, d)
	for _, row := range data {
		for j, v := range row {
			mean[j] += v
		}
	}
	inv := 1 / float64(len(data))
	for j := range mean {
		mean[j] *= inv
	}
	// Covariance matrix (d x d, symmetric).
	cov := newSquare(d)
	for _, row := range data {
		for a := 0; a < d; a++ {
			da := row[a] - mean[a]
			cova := cov[a]
			for b := a; b < d; b++ {
				cova[b] += da * (row[b] - mean[b])
			}
		}
	}
	norm := 1 / float64(len(data)-1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			cov[a][b] *= norm
			cov[b][a] = cov[a][b]
		}
	}
	values, vectors, err := JacobiEigen(cov, 100)
	if err != nil {
		return nil, err
	}
	p := &Projection{Mean: mean}
	for i := 0; i < k; i++ {
		p.Components = append(p.Components, vectors[i])
		p.Variances = append(p.Variances, values[i])
	}
	return p, nil
}

// Project maps v (length D) to its K principal-component scores.
func (p *Projection) Project(v []float64) []float64 {
	d := len(p.Mean)
	if len(v) != d {
		panic(fmt.Sprintf("pca: input length %d, want %d", len(v), d))
	}
	out := make([]float64, len(p.Components))
	for i, comp := range p.Components {
		var s float64
		for j := range comp {
			s += comp[j] * (v[j] - p.Mean[j])
		}
		out[i] = s
	}
	return out
}

func newSquare(n int) [][]float64 {
	backing := make([]float64, n*n)
	m := make([][]float64, n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n]
	}
	return m
}

// JacobiEigen computes the eigendecomposition of the symmetric matrix a
// (which is destroyed) using cyclic Jacobi rotations. It returns eigenvalues
// sorted in descending order and the matching eigenvectors as rows.
func JacobiEigen(a [][]float64, maxSweeps int) ([]float64, [][]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, nil, errors.New("pca: empty matrix")
	}
	for i := range a {
		if len(a[i]) != n {
			return nil, nil, errors.New("pca: matrix not square")
		}
	}
	// v starts as identity; rows of the final v^T are eigenvectors.
	v := newSquare(n)
	for i := 0; i < n; i++ {
		v[i][i] = 1
	}
	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += a[i][j] * a[i][j]
			}
		}
		return s
	}
	// Scale-aware tolerance.
	var frob float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			frob += a[i][j] * a[i][j]
		}
	}
	tol := 1e-22 * (frob + 1e-300)

	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offDiag() <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p][q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply rotation G(p,q,θ) on both sides: a = Gᵀ a G.
				for i := 0; i < n; i++ {
					aip, aiq := a[i][p], a[i][q]
					a[i][p] = c*aip - s*aiq
					a[i][q] = s*aip + c*aiq
				}
				for i := 0; i < n; i++ {
					api, aqi := a[p][i], a[q][i]
					a[p][i] = c*api - s*aqi
					a[q][i] = s*api + c*aqi
				}
				for i := 0; i < n; i++ {
					vip, viq := v[i][p], v[i][q]
					v[i][p] = c*vip - s*viq
					v[i][q] = s*vip + c*viq
				}
			}
		}
	}

	values := make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = a[i][i]
	}
	// Sort eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if values[order[j]] > values[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	sortedVals := make([]float64, n)
	vectors := make([][]float64, n)
	for i, oi := range order {
		sortedVals[i] = values[oi]
		vec := make([]float64, n)
		for r := 0; r < n; r++ {
			vec[r] = v[r][oi]
		}
		vectors[i] = vec
	}
	return sortedVals, vectors, nil
}
