package jade

import (
	"fmt"
	"strings"
)

// FieldError locates one validation failure by the JSON field path of
// the offending knob (e.g. "sizing.app.max: must be > sizing.app.min").
// The same errors flow through every validation surface: Spec.Validate,
// jadectl -config, and the admin /config POST 400 body.
type FieldError struct {
	// Path is the JSON field path within the Spec, dot-joined
	// ("alerting.fast_window_seconds", "faults.chaos[2].patch").
	Path string `json:"path"`
	// Msg states the constraint the value violates.
	Msg string `json:"message"`
}

// Error implements error.
func (e FieldError) Error() string { return e.Path + ": " + e.Msg }

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

// policyPaths are the routing policy fields, in checkPolicies' order.
var policyPaths = [4]string{"routing.policy", "routing.l4", "routing.app", "routing.db"}

// checkPolicies appends an "unknown policy" error for each given policy
// that names no routing policy; a nil entry was not given.
func (e *ValidationError) checkPolicies(policies [4]*string) {
	for i, p := range policies {
		if p == nil {
			continue
		}
		if _, err := ParseRoutingPolicy(*p); err != nil {
			e.addf(policyPaths[i], "unknown policy %q (want one of %v)", *p, RoutingPolicies())
		}
	}
}

// givenPolicies adapts a spec's or the live state's policies, where ""
// means not given, to checkPolicies; a patch leaves them nil instead.
func givenPolicies(policy, l4, app, db string) [4]*string {
	ps := [4]string{policy, l4, app, db}
	var given [4]*string
	for i := range ps {
		if ps[i] != "" {
			given[i] = &ps[i]
		}
	}
	return given
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
