// Package config implements the proprietary configuration-file formats of
// the legacy software Jade manages: Apache's httpd.conf directive format,
// mod_jk's worker.properties Java-properties format, a Tomcat server.xml
// subset, and MySQL's my.cnf INI format.
//
// The point of the paper is that Jade's wrappers hide these heterogeneous
// formats behind a uniform component interface: a SetAttribute("port")
// call on the Apache component is *reflected into httpd.conf*. This
// package is what the wrappers write through, and what the simulated
// legacy servers parse at startup — keeping the legacy boundary honest.
// The files live in one in-memory workspace per platform (MemFS); nothing
// is written to disk.
package config

import (
	"os"
	"sort"
)

// MemFS is the in-memory workspace holding the legacy configuration files.
type MemFS struct {
	files map[string][]byte
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string][]byte)} }

// ReadFile returns the file's contents.
func (m *MemFS) ReadFile(path string) ([]byte, error) {
	b, ok := m.files[path]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// WriteFile creates or replaces the file.
func (m *MemFS) WriteFile(path string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.files[path] = cp
	return nil
}

// List returns all paths sorted.
func (m *MemFS) List() []string {
	out := make([]string, 0, len(m.files))
	for p := range m.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
