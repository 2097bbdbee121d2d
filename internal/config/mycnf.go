package config

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// MyCnf models MySQL's my.cnf INI format: [section] headers followed by
// key=value or bare-flag lines, with '#' and ';' comments.
type MyCnf struct {
	sections []string
	values   map[string]map[string]string // section -> key -> value
	flags    map[string]map[string]bool   // section -> bare flags
}

// NewMyCnf returns an empty document.
func NewMyCnf() *MyCnf {
	return &MyCnf{
		values: make(map[string]map[string]string),
		flags:  make(map[string]map[string]bool),
	}
}

// ParseMyCnf parses my.cnf text.
func ParseMyCnf(text string) (*MyCnf, error) {
	c := NewMyCnf()
	section := ""
	for i, ln := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(ln)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") || strings.HasPrefix(trimmed, ";") {
			continue
		}
		if strings.HasPrefix(trimmed, "[") {
			if !strings.HasSuffix(trimmed, "]") {
				return nil, fmt.Errorf("my.cnf line %d: malformed section %q", i+1, trimmed)
			}
			section = strings.TrimSpace(trimmed[1 : len(trimmed)-1])
			if section == "" {
				return nil, fmt.Errorf("my.cnf line %d: empty section name", i+1)
			}
			c.ensureSection(section)
			continue
		}
		if section == "" {
			return nil, fmt.Errorf("my.cnf line %d: entry %q before any section", i+1, trimmed)
		}
		if eq := strings.IndexByte(trimmed, '='); eq >= 0 {
			key := strings.TrimSpace(trimmed[:eq])
			val := strings.TrimSpace(trimmed[eq+1:])
			if key == "" {
				return nil, fmt.Errorf("my.cnf line %d: empty key", i+1)
			}
			c.Set(section, key, val)
		} else {
			c.flags[section][trimmed] = true
		}
	}
	return c, nil
}

func (c *MyCnf) ensureSection(section string) {
	if _, ok := c.values[section]; ok {
		return
	}
	c.values[section] = make(map[string]string)
	c.flags[section] = make(map[string]bool)
	c.sections = append(c.sections, section)
}

// Set assigns key=value in a section, creating the section if needed.
func (c *MyCnf) Set(section, key, value string) {
	c.ensureSection(section)
	c.values[section][key] = value
}

// SetInt assigns an integer value.
func (c *MyCnf) SetInt(section, key string, value int) {
	c.Set(section, key, strconv.Itoa(value))
}

// Get returns the value for section/key.
func (c *MyCnf) Get(section, key string) (string, bool) {
	vals, ok := c.values[section]
	if !ok {
		return "", false
	}
	v, ok := vals[key]
	return v, ok
}

// GetInt returns an integer value for section/key.
func (c *MyCnf) GetInt(section, key string) (int, error) {
	v, ok := c.Get(section, key)
	if !ok {
		return 0, fmt.Errorf("my.cnf: [%s] %s not found", section, key)
	}
	return strconv.Atoi(v)
}

// Render returns the my.cnf text with deterministic key ordering.
func (c *MyCnf) Render() string {
	var b strings.Builder
	for i, s := range c.sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "[%s]\n", s)
		keys := make([]string, 0, len(c.values[s]))
		for k := range c.values[s] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%s\n", k, c.values[s][k])
		}
		fl := make([]string, 0, len(c.flags[s]))
		for f := range c.flags[s] {
			fl = append(fl, f)
		}
		sort.Strings(fl)
		for _, f := range fl {
			fmt.Fprintf(&b, "%s\n", f)
		}
	}
	return b.String()
}
