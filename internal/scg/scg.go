// Package scg implements Møller's Scaled Conjugate Gradient algorithm
// ("A scaled conjugate gradient algorithm for fast supervised learning",
// Neural Networks 6(4), 1993), the trainer the paper uses for the NFC
// membership functions: a conjugate-gradient method whose step size comes
// from a Levenberg-Marquardt-style scaling rather than a line search, so
// each iteration costs a small, fixed number of gradient evaluations.
package scg

import (
	"errors"
	"math"
)

// Objective evaluates a function at x, stores the gradient into grad
// (len(grad) == len(x)) and returns the function value.
type Objective func(x, grad []float64) float64

// Options tunes the optimizer. Zero values select defaults.
type Options struct {
	MaxIter  int     // maximum iterations; default 200
	GradTol  float64 // stop when the gradient inf-norm falls below; default 1e-6
	StepTol  float64 // stop when |Δf| stays below for two iterations; default 1e-9
	SigmaRef float64 // σ of Møller's finite-difference second order; default 1e-4
	LambdaIn float64 // initial λ; default 1e-6
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	if o.StepTol <= 0 {
		o.StepTol = 1e-9
	}
	if o.SigmaRef <= 0 {
		o.SigmaRef = 1e-4
	}
	if o.LambdaIn <= 0 {
		o.LambdaIn = 1e-6
	}
	return o
}

// Result reports the optimization outcome.
type Result struct {
	X          []float64 // final parameters
	F          float64   // final function value
	Iterations int
	FuncEvals  int
	Converged  bool // gradient or step tolerance met (vs. iteration cap)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func infNorm(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Minimize runs SCG from x0. The input slice is not modified.
func Minimize(obj Objective, x0 []float64, opts Options) (Result, error) {
	o := opts.withDefaults()
	n := len(x0)
	if n == 0 {
		return Result{}, errors.New("scg: empty parameter vector")
	}

	w := append([]float64(nil), x0...)
	grad := make([]float64, n)
	gradPlus := make([]float64, n)
	wTry := make([]float64, n)
	evals := 0

	f := obj(w, grad)
	evals++
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Result{X: w, F: f, FuncEvals: evals}, errors.New("scg: objective not finite at x0")
	}

	// r: steepest descent direction, p: conjugate direction.
	r := make([]float64, n)
	p := make([]float64, n)
	for i := range grad {
		r[i] = -grad[i]
		p[i] = -grad[i]
	}

	lambda := o.LambdaIn
	lambdaBar := 0.0
	success := true
	var delta float64
	s := make([]float64, n)
	res := Result{}
	smallSteps := 0

	for iter := 1; iter <= o.MaxIter; iter++ {
		res.Iterations = iter
		pNorm2 := dot(p, p)
		pNorm := math.Sqrt(pNorm2)
		if pNorm < 1e-300 {
			res.Converged = true
			break
		}

		if success {
			// Second-order information: s ≈ H·p via finite differences.
			sigma := o.SigmaRef / pNorm
			for i := range w {
				wTry[i] = w[i] + sigma*p[i]
			}
			obj(wTry, gradPlus)
			evals++
			for i := range s {
				s[i] = (gradPlus[i] - grad[i]) / sigma
			}
			delta = dot(p, s)
		}

		// Scale: delta += (λ - λ̄)|p|².
		delta += (lambda - lambdaBar) * pNorm2
		if delta <= 0 {
			// Make the Hessian approximation positive definite.
			lambdaBar = 2 * (lambda - delta/pNorm2)
			delta = -delta + lambda*pNorm2
			lambda = lambdaBar
		}

		mu := dot(p, r)
		alpha := mu / delta
		for i := range w {
			wTry[i] = w[i] + alpha*p[i]
		}
		fTry := obj(wTry, gradPlus)
		evals++

		// Comparison parameter Δ.
		comp := 2 * delta * (f - fTry) / (mu * mu)
		if comp >= 0 && !math.IsNaN(fTry) {
			// Successful step.
			df := f - fTry
			copy(w, wTry)
			f = fTry
			// gradient at the new point
			obj(w, grad)
			evals++
			lambdaBar = 0
			success = true

			rNew := make([]float64, n)
			for i := range grad {
				rNew[i] = -grad[i]
			}
			if iter%n == 0 {
				copy(p, rNew) // restart
			} else {
				beta := (dot(rNew, rNew) - dot(rNew, r)) / mu
				for i := range p {
					p[i] = rNew[i] + beta*p[i]
				}
			}
			copy(r, rNew)
			if comp >= 0.75 {
				lambda *= 0.25
			}
			if infNorm(grad) < o.GradTol {
				res.Converged = true
				break
			}
			if math.Abs(df) < o.StepTol {
				smallSteps++
				if smallSteps >= 2 {
					res.Converged = true
					break
				}
			} else {
				smallSteps = 0
			}
		} else {
			lambdaBar = lambda
			success = false
		}
		if comp < 0.25 || math.IsNaN(comp) {
			lambda += delta * (1 - comp) / pNorm2
			if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda > 1e100 {
				lambda = 1e100
			}
		}
	}

	res.X = w
	res.F = f
	res.FuncEvals = evals
	return res, nil
}
