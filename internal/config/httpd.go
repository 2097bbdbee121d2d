package config

import (
	"fmt"
	"strconv"
	"strings"
)

// HTTPDConf models Apache's httpd.conf: an ordered list of
// "Directive value..." lines with '#' comments. Directive names are
// case-insensitive (as in Apache); the original spelling and ordering are
// preserved on render so a wrapper edit produces a minimal diff.
type HTTPDConf struct {
	lines []httpdLine
}

type httpdLine struct {
	raw       string // verbatim line for comments/blank lines
	directive string // empty for raw lines
	args      []string
}

// ParseHTTPDConf parses httpd.conf text. A final newline is treated as a
// line terminator, not as an extra blank line, so parse and Render are
// mutually inverse.
func ParseHTTPDConf(text string) (*HTTPDConf, error) {
	c := &HTTPDConf{}
	text = strings.TrimSuffix(text, "\n")
	if text == "" {
		return c, nil
	}
	for i, ln := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(ln)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			c.lines = append(c.lines, httpdLine{raw: ln})
			continue
		}
		fields := strings.Fields(trimmed)
		if len(fields) < 2 {
			return nil, fmt.Errorf("httpd.conf line %d: directive %q has no value", i+1, trimmed)
		}
		c.lines = append(c.lines, httpdLine{directive: fields[0], args: fields[1:]})
	}
	return c, nil
}

// NewHTTPDConf returns an empty configuration.
func NewHTTPDConf() *HTTPDConf { return &HTTPDConf{} }

// Get returns the arguments of the first occurrence of the directive
// (case-insensitive) and whether it exists.
func (c *HTTPDConf) Get(directive string) ([]string, bool) {
	for _, l := range c.lines {
		if strings.EqualFold(l.directive, directive) {
			return append([]string(nil), l.args...), true
		}
	}
	return nil, false
}

// GetString returns the single string value of a directive or "".
func (c *HTTPDConf) GetString(directive string) string {
	if args, ok := c.Get(directive); ok && len(args) > 0 {
		return args[0]
	}
	return ""
}

// GetInt returns the integer value of a directive.
func (c *HTTPDConf) GetInt(directive string) (int, error) {
	s := c.GetString(directive)
	if s == "" {
		return 0, fmt.Errorf("httpd.conf: directive %q not found", directive)
	}
	return strconv.Atoi(s)
}

// Set replaces the first occurrence of the directive or appends it.
func (c *HTTPDConf) Set(directive string, args ...string) {
	if len(args) == 0 {
		panic("httpd.conf: Set with no value")
	}
	for i, l := range c.lines {
		if strings.EqualFold(l.directive, directive) {
			c.lines[i].args = append([]string(nil), args...)
			return
		}
	}
	c.lines = append(c.lines, httpdLine{directive: directive, args: append([]string(nil), args...)})
}

// Render returns the file text.
func (c *HTTPDConf) Render() string {
	var b strings.Builder
	for _, l := range c.lines {
		if l.directive == "" {
			b.WriteString(l.raw)
		} else {
			b.WriteString(l.directive)
			for _, a := range l.args {
				b.WriteByte(' ')
				b.WriteString(a)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
