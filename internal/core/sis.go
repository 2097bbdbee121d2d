package core

import (
	"errors"
	"fmt"
	"sort"

	"jade/internal/cluster"
	"jade/internal/sim"
)

// ErrUnknownPackage is returned for packages the SIS does not hold.
var ErrUnknownPackage = errors.New("jade: unknown software package")

// Package is one deployable software resource held by the Software
// Installation Service (§3.3): the service "allows retrieving the
// encapsulated software resources involved in the multi-tier application
// and installing them on nodes of the cluster".
type Package struct {
	Name string
	// InstallSeconds is the time to copy and unpack the package on a
	// node the first time; reinstalls on a node that already holds the
	// package are fast.
	InstallSeconds float64
	// MemoryMB is reserved on the node while the package is installed
	// (binaries, caches).
	MemoryMB float64
}

// InstallService is Jade's Software Installation Service component.
type InstallService struct {
	eng       *sim.Engine
	logf      func(string, ...any)
	packages  map[string]Package
	installed map[string]map[string]bool // node -> package set
}

// NewInstallService returns an empty service.
func NewInstallService(eng *sim.Engine, logf func(string, ...any)) *InstallService {
	return &InstallService{
		eng:       eng,
		logf:      logf,
		packages:  make(map[string]Package),
		installed: make(map[string]map[string]bool),
	}
}

// registerStandardPackages loads the software resources of the paper's
// J2EE environment.
func registerStandardPackages(s *InstallService) {
	for _, pkg := range []Package{
		{Name: "apache", InstallSeconds: 6, MemoryMB: 10},
		{Name: "tomcat", InstallSeconds: 10, MemoryMB: 30},
		{Name: "mysql", InstallSeconds: 8, MemoryMB: 20},
		{Name: "cjdbc", InstallSeconds: 6, MemoryMB: 15},
		{Name: "plb", InstallSeconds: 3, MemoryMB: 5},
		{Name: "l4", InstallSeconds: 1, MemoryMB: 2},
	} {
		s.Register(pkg)
	}
}

// Register adds or replaces a package.
func (s *InstallService) Register(pkg Package) { s.packages[pkg.Name] = pkg }

// Packages returns registered package names, sorted.
func (s *InstallService) Packages() []string {
	out := make([]string, 0, len(s.packages))
	for n := range s.packages {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsInstalled reports whether a node holds a package.
func (s *InstallService) IsInstalled(node *cluster.Node, pkg string) bool {
	return s.installed[node.Name()][pkg]
}

// Install deploys a package onto a node, asynchronously. Installing onto
// a node that already holds the package completes quickly (configuration
// refresh only).
func (s *InstallService) Install(pkgName string, node *cluster.Node, done func(error)) {
	finish := func(err error) {
		if done != nil {
			done(err)
		}
	}
	pkg, ok := s.packages[pkgName]
	if !ok {
		finish(fmt.Errorf("%w: %s", ErrUnknownPackage, pkgName))
		return
	}
	if node.Failed() {
		finish(fmt.Errorf("jade: installing %s on failed node %s", pkgName, node.Name()))
		return
	}
	delay := pkg.InstallSeconds
	already := s.IsInstalled(node, pkgName)
	if already {
		delay = 0.5
	}
	s.eng.After(delay, "sis:install:"+pkgName, func() {
		if node.Failed() {
			finish(fmt.Errorf("jade: node %s failed during installation of %s", node.Name(), pkgName))
			return
		}
		if !already {
			if err := node.AllocMemory(pkg.MemoryMB); err != nil {
				finish(err)
				return
			}
			if s.installed[node.Name()] == nil {
				s.installed[node.Name()] = make(map[string]bool)
			}
			s.installed[node.Name()][pkgName] = true
		}
		s.logf("sis: installed %s on %s", pkgName, node.Name())
		finish(nil)
	})
}
