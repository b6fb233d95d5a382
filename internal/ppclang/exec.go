package ppclang

import (
	"context"
	"errors"
	"fmt"
	"io"

	"ppamcp/internal/par"
	"ppamcp/internal/ppa"
)

// Executor runs a PPC program against a par.Array. Two implementations
// exist: the bytecode VM (the default production path) and the
// tree-walking Interp retained as the semantic oracle — the same
// fast-path/oracle split as core's fused DP lane vs. ReferenceKernels.
// Both are driven through the identical host API: bind inputs with the
// Set* methods, invoke a niladic entry point with Call, read results back
// with the Get* methods.
type Executor interface {
	// Call invokes a niladic PPC function by name (the host entry point).
	Call(name string) (Value, error)
	// Array returns the array the program runs on.
	Array() *par.Array

	SetInt(name string, val int64) error
	GetInt(name string) (int64, error)
	SetParallelInt(name string, data []ppa.Word) error
	GetParallelInt(name string) ([]ppa.Word, error)
	SetParallelLogical(name string, data []bool) error
	GetParallelLogical(name string) ([]bool, error)
}

// NewExecutor creates an executor for prog on arr: the bytecode VM by
// default, or the tree-walking interpreter under WithReference(true).
// Installing either evaluates the program's global declarations in order,
// so host inputs can be bound immediately afterwards.
func NewExecutor(prog *Program, arr *par.Array, opts ...Option) (Executor, error) {
	var cfg config
	cfg.apply(opts)
	if cfg.reference {
		return NewInterp(prog, arr, opts...)
	}
	return NewVM(prog, arr, opts...)
}

// config is the execution configuration shared by both executors.
type config struct {
	out       io.Writer
	fuel      int64
	ctx       context.Context
	reference bool
}

func (c *config) apply(opts []Option) {
	c.out = io.Discard
	for _, o := range opts {
		o(c)
	}
}

// Option configures an Executor (either implementation).
type Option func(*config)

// InterpOption is kept as an alias for Option; the historical name from
// when the tree-walker was the only executor.
type InterpOption = Option

// WithOutput directs print() output to w (default: discarded).
func WithOutput(w io.Writer) Option {
	return func(c *config) { c.out = w }
}

// WithFuel bounds execution to n PPC statements per Call (0 = unlimited).
// Exhausting the budget aborts with an error satisfying
// errors.Is(err, ErrFuelExhausted). Both executors charge fuel at the same
// points — once per statement entered, in execution order — so a budgeted
// run fails at the identical statement on either path.
func WithFuel(n int64) Option {
	return func(c *config) { c.fuel = n }
}

// WithContext attaches a context whose cancellation/deadline aborts
// execution. The check is coarse-grained (every 64 statements) to keep it
// off the dispatch fast path.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithReference forces the tree-walking interpreter — the retained
// semantic oracle the bytecode VM is differentially tested against.
func WithReference(on bool) Option {
	return func(c *config) { c.reference = on }
}

// ErrFuelExhausted is the sentinel matched by errors.Is when a fuel
// budget set with WithFuel runs out.
var ErrFuelExhausted = errors.New("ppclang: fuel exhausted")

// FuelError reports where a fuel budget ran out.
type FuelError struct {
	Pos   Pos
	Limit int64
}

func (e *FuelError) Error() string {
	return fmt.Sprintf("%s: fuel exhausted (budget %d statements)", e.Pos, e.Limit)
}

// Is reports ErrFuelExhausted identity for errors.Is.
func (e *FuelError) Is(target error) bool { return target == ErrFuelExhausted }

// DeadlineError reports where a WithContext cancellation or deadline
// interrupted execution; it unwraps to the context's error.
type DeadlineError struct {
	Pos   Pos
	Cause error
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("%s: execution aborted: %v", e.Pos, e.Cause)
}

func (e *DeadlineError) Unwrap() error { return e.Cause }

// guard is the per-executor fuel and deadline state. Both executors call
// tick exactly once per statement entered, before the statement's effects,
// so the abort point is deterministic and identical across paths.
type guard struct {
	fuelOn   bool
	fuelLeft int64
	limit    int64
	ctx      context.Context
	ticks    uint64
}

func newGuard(cfg *config) guard {
	g := guard{ctx: cfg.ctx}
	if cfg.fuel > 0 {
		g.fuelOn = true
		g.limit = cfg.fuel
		g.fuelLeft = cfg.fuel
	}
	return g
}

// reset restores the full budget (called at each host-level Call).
func (g *guard) reset() { g.fuelLeft = g.limit }

// tick charges one statement and enforces budget and deadline.
func (g *guard) tick(pos Pos) error {
	if g.fuelOn {
		if g.fuelLeft <= 0 {
			return &FuelError{Pos: pos, Limit: g.limit}
		}
		g.fuelLeft--
	}
	if g.ctx != nil {
		g.ticks++
		if g.ticks&63 == 0 {
			select {
			case <-g.ctx.Done():
				return &DeadlineError{Pos: pos, Cause: g.ctx.Err()}
			default:
			}
		}
	}
	return nil
}
