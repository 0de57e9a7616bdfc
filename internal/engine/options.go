package engine

import (
	"errors"
	"fmt"
)

// Execution-context aggregation.
//
// A predictor models one hardware context: one global history register,
// one set of tables. Interleaved multi-thread streams can be aggregated
// two ways, and the choice is a modelling decision, not an
// implementation detail:
//
//   - shared: one table set sees the interleaved update stream, the way
//     an SMT core's shared predictor would. Cross-context updates alias
//     into each other's history and counters.
//   - private: each context gets its own power-on predictor, slice
//     clock and profilers — the way per-thread profiling hardware (or
//     simply profiling each thread's stream separately) would behave.
//     The engine builds one child Engine per context to do this.

// AggMode selects how a multi-context stream is aggregated into
// predictor and profiler state.
type AggMode uint8

const (
	// AggShared routes every context through one shared predictor.
	AggShared AggMode = iota
	// AggPrivate profiles each context with its own engine: a private
	// predictor, slice clock and profiler set.
	AggPrivate
)

// String implements fmt.Stringer.
func (m AggMode) String() string {
	switch m {
	case AggShared:
		return "shared"
	case AggPrivate:
		return "private"
	default:
		return fmt.Sprintf("AggMode(%d)", uint8(m))
	}
}

// ParseAggMode converts a configuration string ("shared" or "private")
// to an AggMode.
func ParseAggMode(s string) (AggMode, error) {
	switch s {
	case "shared":
		return AggShared, nil
	case "private":
		return AggPrivate, nil
	default:
		return 0, fmt.Errorf("engine: unknown aggregation mode %q (known: shared, private)", s)
	}
}

// Option validation. New rejects nonsense configurations up front with
// typed errors instead of letting an absurd worker count start
// thousands of decode goroutines three layers deeper.

// MaxWorkers caps the decode worker count. Zero and negative values
// are not errors — they mean "one per CPU", matching the flag
// semantics in flags.go. Workers beyond the machine's core count only
// add goroutines; 4096 is far above any useful setting.
const MaxWorkers = 4096

// An OptionError reports one invalid Options field. Validate joins one
// per violation, so errors.As finds the first and errors.Join's
// message lists them all.
type OptionError struct {
	Field  string // Options field name
	Value  int    // the rejected value
	Reason string // why it was rejected
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("engine: invalid option %s = %d (%s)", e.Field, e.Value, e.Reason)
}

// Validate checks Workers against its ceiling and the aggregation mode
// against the known set. It returns nil for any
// configuration New would have accepted before validation existed —
// in particular, zero values throughout (the all-defaults Options) are
// valid. The Predictor name is not checked here: its validity depends
// on the metric, so New resolves it against the registry itself.
func (o Options) Validate() error {
	var errs []error
	if o.Workers > MaxWorkers {
		errs = append(errs, &OptionError{"Workers", o.Workers, fmt.Sprintf("above MaxWorkers %d", MaxWorkers)})
	}
	if o.Aggregation != AggShared && o.Aggregation != AggPrivate {
		errs = append(errs, &OptionError{"Aggregation", int(o.Aggregation), "not a known aggregation mode (shared, private)"})
	}
	return errors.Join(errs...)
}
