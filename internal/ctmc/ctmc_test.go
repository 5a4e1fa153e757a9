package ctmc

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// twoStateChain builds the generator of a simple on/off chain with rates
// a (0->1) and b (1->0); its stationary distribution is (b, a)/(a+b).
func twoStateChain(t *testing.T, a, b float64) *Generator {
	t.Helper()
	g, err := NewGenerator(2, func(s int, emit func(int, float64)) {
		if s == 0 {
			emit(1, a)
		} else {
			emit(0, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mmckTransitions returns the transition function of an M/M/c/K queue with
// arrival rate lambda and service rate mu; state = number in system.
func mmckTransitions(lambda, mu float64, c, capacity int) TransitionFunc {
	return func(s int, emit func(int, float64)) {
		if s < capacity {
			emit(s+1, lambda)
		}
		if s > 0 {
			busy := s
			if busy > c {
				busy = c
			}
			emit(s-1, float64(busy)*mu)
		}
	}
}

// mmckExact returns the closed-form distribution of an M/M/c/K queue.
func mmckExact(lambda, mu float64, c, capacity int) []float64 {
	p := make([]float64, capacity+1)
	p[0] = 1
	for s := 1; s <= capacity; s++ {
		busy := s
		if busy > c {
			busy = c
		}
		p[s] = p[s-1] * lambda / (float64(busy) * mu)
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

func TestTwoStateChainAllMethods(t *testing.T) {
	const a, b = 0.3, 0.7
	g := twoStateChain(t, a, b)
	for _, m := range []Method{GaussSeidel, Jacobi, Power} {
		sol, err := g.SteadyState(SolveOptions{Method: m, Tolerance: 1e-12})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !sol.Converged {
			t.Errorf("%v: did not converge", m)
		}
		if !almostEqual(sol.Pi[0], b/(a+b), 1e-8) || !almostEqual(sol.Pi[1], a/(a+b), 1e-8) {
			t.Errorf("%v: pi = %v, want [%v %v]", m, sol.Pi, b/(a+b), a/(a+b))
		}
		if sol.Residual > 1e-8 {
			t.Errorf("%v: residual = %v", m, sol.Residual)
		}
	}
}

func TestMMcKMatchesClosedForm(t *testing.T) {
	const (
		lambda   = 2.5
		mu       = 1.0
		c        = 3
		capacity = 15
	)
	g, err := NewGenerator(capacity+1, mmckTransitions(lambda, mu, c, capacity))
	if err != nil {
		t.Fatal(err)
	}
	want := mmckExact(lambda, mu, c, capacity)
	for _, m := range []Method{GaussSeidel, Jacobi, Power} {
		sol, err := g.SteadyState(SolveOptions{Method: m, Tolerance: 1e-13, MaxIterations: 200000})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for s := range want {
			if !almostEqual(sol.Pi[s], want[s], 1e-7) {
				t.Errorf("%v: pi[%d] = %v, want %v", m, s, sol.Pi[s], want[s])
			}
		}
	}
}

func TestGeneratorCountsAndRates(t *testing.T) {
	g := twoStateChain(t, 2, 5)
	if g.NumStates() != 2 {
		t.Errorf("NumStates = %d", g.NumStates())
	}
	if g.NumTransitions() != 2 {
		t.Errorf("NumTransitions = %d", g.NumTransitions())
	}
	if g.OutRate(0) != 2 || g.OutRate(1) != 5 {
		t.Errorf("out rates = %v, %v", g.OutRate(0), g.OutRate(1))
	}
	if g.OutRate(-1) != 0 || g.OutRate(2) != 0 {
		t.Error("out-of-range OutRate should be 0")
	}
	if g.MaxOutRate() != 5 {
		t.Errorf("MaxOutRate = %v, want 5", g.MaxOutRate())
	}
}

func TestGeneratorRejectsInvalidInput(t *testing.T) {
	if _, err := NewGenerator(0, func(int, func(int, float64)) {}); !errors.Is(err, ErrInvalidArgument) {
		t.Error("zero states should be rejected")
	}
	if _, err := NewGenerator(2, nil); !errors.Is(err, ErrInvalidArgument) {
		t.Error("nil transition function should be rejected")
	}
	_, err := NewGenerator(2, func(s int, emit func(int, float64)) { emit(5, 1) })
	if !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("out-of-range target: got %v", err)
	}
	_, err = NewGenerator(2, func(s int, emit func(int, float64)) { emit(1-s, -1) })
	if !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("negative rate: got %v", err)
	}
	_, err = NewGenerator(2, func(s int, emit func(int, float64)) { emit(1-s, math.NaN()) })
	if !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("NaN rate: got %v", err)
	}
	// A state with no outgoing transitions cannot belong to an irreducible
	// chain.
	_, err = NewGenerator(2, func(s int, emit func(int, float64)) {
		if s == 0 {
			emit(1, 1)
		}
	})
	if !errors.Is(err, ErrNotIrreducible) {
		t.Errorf("dangling state: got %v", err)
	}
}

func TestGeneratorIgnoresSelfLoopsAndZeroRates(t *testing.T) {
	g, err := NewGenerator(2, func(s int, emit func(int, float64)) {
		emit(s, 100) // self loop must be ignored
		emit(1-s, 0) // zero rate must be ignored
		emit(1-s, 1) // the real transition
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTransitions() != 2 {
		t.Errorf("NumTransitions = %d, want 2", g.NumTransitions())
	}
	if g.OutRate(0) != 1 {
		t.Errorf("self loops must not contribute to the outflow rate, got %v", g.OutRate(0))
	}
}

func TestSingleStateChain(t *testing.T) {
	g, err := NewGenerator(1, func(int, func(int, float64)) {})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Pi) != 1 || sol.Pi[0] != 1 || !sol.Converged {
		t.Errorf("single state solution = %+v", sol)
	}
}

func TestInitialVectorAndValidation(t *testing.T) {
	g := twoStateChain(t, 1, 1)
	sol, err := g.SteadyState(SolveOptions{Initial: []float64{0.9, 0.1}, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sol.Pi[0], 0.5, 1e-8) {
		t.Errorf("pi[0] = %v, want 0.5", sol.Pi[0])
	}
	if _, err := g.SteadyState(SolveOptions{Initial: []float64{1}}); !errors.Is(err, ErrInvalidArgument) {
		t.Error("wrong-length initial vector should be rejected")
	}
	if _, err := g.SteadyState(SolveOptions{Method: Method(42)}); !errors.Is(err, ErrInvalidArgument) {
		t.Error("unknown method should be rejected")
	}
}

// TestSteadyStateRejectsBadOptions checks that a tolerance or relaxation
// factor no iteration could honour fails at once: an infinite tolerance used
// to stop after the first check, a NaN one to run every sweep, and a
// negative one to fall back to the default silently.
func TestSteadyStateRejectsBadOptions(t *testing.T) {
	g := twoStateChain(t, 1, 1)
	tests := []struct {
		name string
		opts SolveOptions
	}{
		{"tolerance NaN", SolveOptions{Tolerance: math.NaN()}},
		{"tolerance +Inf", SolveOptions{Tolerance: math.Inf(1)}},
		{"tolerance -Inf", SolveOptions{Tolerance: math.Inf(-1)}},
		{"tolerance negative", SolveOptions{Tolerance: -1}},
		{"relaxation NaN", SolveOptions{Relaxation: math.NaN()}},
		{"relaxation negative", SolveOptions{Relaxation: -0.5}},
		{"relaxation 2", SolveOptions{Relaxation: 2}},
		{"relaxation +Inf", SolveOptions{Relaxation: math.Inf(1)}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []Method{GaussSeidel, Jacobi, Power} {
				tc.opts.Method = m
				if _, err := g.SteadyState(tc.opts); !errors.Is(err, ErrInvalidArgument) {
					t.Errorf("%v: error %v, want ErrInvalidArgument", m, err)
				}
			}
		})
	}
}

func TestParallelPowerMatchesSequential(t *testing.T) {
	const n = 500
	// Random-ish birth-death chain with position-dependent rates.
	tf := func(s int, emit func(int, float64)) {
		if s < n-1 {
			emit(s+1, 1.0+float64(s%7))
		}
		if s > 0 {
			emit(s-1, 2.0+float64(s%5))
		}
	}
	g, err := NewGenerator(n, tf)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := g.SteadyState(SolveOptions{Method: Power, Tolerance: 1e-12, MaxIterations: 500000})
	if err != nil {
		t.Fatal(err)
	}
	par, err := g.SteadyState(SolveOptions{Method: Power, Tolerance: 1e-12, MaxIterations: 500000, Parallel: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		if !almostEqual(seq.Pi[s], par.Pi[s], 1e-9) {
			t.Fatalf("parallel mismatch at state %d: %v vs %v", s, seq.Pi[s], par.Pi[s])
		}
	}
}

func TestResidualAndInflow(t *testing.T) {
	g := twoStateChain(t, 0.3, 0.7)
	pi := []float64{0.7, 0.3}
	res, err := g.Residual(pi)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-12 {
		t.Errorf("residual of exact solution = %v", res)
	}
	dst := make([]float64, 2)
	if err := g.Inflow(pi, dst); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(dst[0], 0.3*0.7, 1e-12) || !almostEqual(dst[1], 0.7*0.3, 1e-12) {
		t.Errorf("inflow = %v", dst)
	}
	if _, err := g.Residual([]float64{1}); !errors.Is(err, ErrInvalidArgument) {
		t.Error("wrong-length residual vector should be rejected")
	}
	if err := g.Inflow([]float64{1}, dst); !errors.Is(err, ErrInvalidArgument) {
		t.Error("wrong-length inflow vector should be rejected")
	}
}

func TestExpectation(t *testing.T) {
	pi := []float64{0.25, 0.25, 0.5, 0}
	got := Expectation(pi, func(s int) float64 { return float64(s) })
	if !almostEqual(got, 1.25, 1e-12) {
		t.Errorf("expectation = %v, want 1.25", got)
	}
}

func TestMethodString(t *testing.T) {
	if GaussSeidel.String() != "gauss-seidel" || Jacobi.String() != "jacobi" || Power.String() != "power" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should render something")
	}
}

// Property: for random ergodic birth-death chains, the Gauss-Seidel solution
// satisfies detailed balance (birth-death chains are reversible) and matches
// the closed-form product solution.
func TestBirthDeathDetailedBalanceProperty(t *testing.T) {
	prop := func(nSeed uint8, birthSeed, deathSeed uint16) bool {
		n := int(nSeed%20) + 2
		birth := 0.1 + float64(birthSeed%100)/20
		death := 0.1 + float64(deathSeed%100)/20
		tf := func(s int, emit func(int, float64)) {
			if s < n-1 {
				emit(s+1, birth)
			}
			if s > 0 {
				emit(s-1, death*float64(s))
			}
		}
		g, err := NewGenerator(n, tf)
		if err != nil {
			return false
		}
		sol, err := g.SteadyState(SolveOptions{Tolerance: 1e-13, MaxIterations: 100000})
		if err != nil || !sol.Converged {
			return false
		}
		for s := 0; s < n-1; s++ {
			lhs := sol.Pi[s] * birth
			rhs := sol.Pi[s+1] * death * float64(s+1)
			if math.Abs(lhs-rhs) > 1e-6*(1+lhs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolutionProbabilityVectorProperties(t *testing.T) {
	g, err := NewGenerator(50, mmckTransitions(3, 0.5, 4, 49))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range sol.Pi {
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
		sum += p
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("probabilities sum to %v", sum)
	}
}
