package jade

import (
	"fmt"
	"math"
	"strings"
)

// FieldError locates one validation failure by the JSON field path of
// the offending knob (e.g. "sizing.app.max: must be > sizing.app.min").
// The same errors flow through every validation surface: Spec.Validate,
// jadectl -config, and the admin /config POST 400 body.
type FieldError struct {
	// Path is the JSON field path within the Spec, dot-joined
	// ("sizing.app.max", "faults.chaos[2].patch").
	Path string `json:"path"`
	// Msg states the constraint the value violates.
	Msg string `json:"message"`
}

// Error implements error: the path, then the message (the message alone
// when the error has no path).
func (e FieldError) Error() string {
	if e.Path == "" {
		return e.Msg
	}
	return e.Path + ": " + e.Msg
}

// ValidationError aggregates every FieldError found in one validation
// pass, so a config file with three bad knobs reports all three at once
// instead of failing one knob per run.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

// Error implements error: one line per field.
func (e *ValidationError) Error() string {
	if e == nil || len(e.Fields) == 0 {
		return "jade: invalid spec"
	}
	parts := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		parts[i] = f.Error()
	}
	return "jade: invalid spec: " + strings.Join(parts, "; ")
}

// addf appends one field error.
func (e *ValidationError) addf(path, format string, args ...any) {
	e.Fields = append(e.Fields, FieldError{Path: path, Msg: fmt.Sprintf(format, args...)})
}

// The field rules, one checker per refreshable section. The live path
// runs them on a patch merged over the committed values; Spec.Validate and
// newRun run them on the defaulted run configuration. Each therefore sees
// the numbers the run will use, and reports them at the path a Spec and a
// patch share.

// checkSizing checks one sizing loop's thresholds and hysteresis.
func (e *ValidationError) checkSizing(path string, c SizingConfig) {
	e.nonNegative(path+".min", c.Min)
	if c.Max <= c.Min {
		e.addf(path+".max", "must be > %s.min (%g), got %g", path, c.Min, c.Max)
	}
	e.nonNegative(path+".inhibit_seconds", c.InhibitSeconds)
}

// checkRouting checks the per-tier policies with the routing rule, which
// lives beside the tiers' default policies in core.
func (e *ValidationError) checkRouting(r RoutingConfig) {
	r.Check(func(field, msg string) { e.addf("routing."+field, "%s", msg) })
}

// checkRPC checks per-tier RPC budgets (a zero field keeps the fabric's
// default).
func (e *ValidationError) checkRPC(rpc map[string]RPCBudget) {
	for _, tier := range sortedKeys(rpc) {
		b, path := rpc[tier], "faults.network.rpc["+tier+"]"
		e.nonNegative(path+".timeout_seconds", b.TimeoutSeconds)
		e.nonNegative(path+".attempts", float64(b.Attempts))
		e.nonNegative(path+".backoff_seconds", b.BackoffSeconds)
	}
}

// nonNegative refuses a negative or non-finite value: a NaN passes every
// comparison, and a NaN or infinite horizon never ends a run.
func (e *ValidationError) nonNegative(path string, v float64) {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		e.addf(path, "must be finite, got %g", v)
	case v < 0:
		e.addf(path, "must be >= 0, got %g", v)
	}
}

// or returns nil when no field failed, the aggregate otherwise.
func (e *ValidationError) or() error {
	if len(e.Fields) == 0 {
		return nil
	}
	return e
}

// AsValidationError unwraps err into its field errors. Flat errors (IO,
// JSON syntax) come back as a single error-level FieldError with an
// empty path, so callers can render uniformly.
func AsValidationError(err error) []FieldError {
	if err == nil {
		return nil
	}
	if ve, ok := err.(*ValidationError); ok {
		return ve.Fields
	}
	if fe, ok := err.(FieldError); ok {
		return []FieldError{fe}
	}
	return []FieldError{{Msg: err.Error()}}
}
