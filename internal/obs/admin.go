package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Publisher is the bridge between the simulation and HTTP readers: the
// sim thread renders immutable byte pages at snapshot ticks and Sets them
// (the metrics pages through the run's writer goroutine, from immutable
// registry snapshots); handlers only Get. Readers therefore never touch
// live sim structures and cannot perturb the trajectory. The one write path
// — POST /config — goes through an explicit handler that only enqueues
// a validated submission for the sim goroutine to drain at a tick
// boundary, preserving the same non-perturbation guarantee.
type Publisher struct {
	mu    sync.RWMutex
	pages map[string][]byte
	posts map[string]PostHandler
}

// PostHandler handles one POST body and returns the HTTP status code
// and response body. It must not touch live simulation state — the
// config handler validates and enqueues only.
type PostHandler func(body []byte) (status int, response []byte)

// NewPublisher returns an empty publisher.
func NewPublisher() *Publisher {
	return &Publisher{pages: make(map[string][]byte), posts: make(map[string]PostHandler)}
}

// SetPostHandler installs the POST handler for path. Pages registered in
// pageContentTypes still serve GETs on the same path.
func (p *Publisher) SetPostHandler(path string, fn PostHandler) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.posts[path] = fn
	p.mu.Unlock()
}

// postHandler returns the POST handler for path.
func (p *Publisher) postHandler(path string) (PostHandler, bool) {
	if p == nil {
		return nil, false
	}
	p.mu.RLock()
	fn, ok := p.posts[path]
	p.mu.RUnlock()
	return fn, ok && fn != nil
}

// Set stores the current page for path. The caller must not mutate page
// afterwards.
func (p *Publisher) Set(path string, page []byte) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.pages[path] = page
	p.mu.Unlock()
}

// Get returns the current page for path.
func (p *Publisher) Get(path string) ([]byte, bool) {
	if p == nil {
		return nil, false
	}
	p.mu.RLock()
	page, ok := p.pages[path]
	p.mu.RUnlock()
	return page, ok
}

// AdminServer serves the published introspection pages over HTTP:
//
//	/metrics       Prometheus text exposition (0.0.4)
//	/metrics.json  the same snapshot as JSON
//	/healthz       liveness + SLO compliance ("ok" | "degraded" | "invariant-violation")
//	/components    Fractal component tree with lifecycle/binding state
//	/loops         control-loop internals (sensor, thresholds, hysteresis)
//	/alerts        active + resolved alerts (jade-alerts/v1)
//	/incidents     correlated incident timelines (jade-incidents/v1)
//	/fluid         fluid workload-engine station internals (jade-fluid/v1)
//	/config        refreshable configuration (GET: jade-config/v1 snapshot;
//	               POST: enqueue a validated patch for the next drain tick)
type AdminServer struct {
	pub   *Publisher
	ln    net.Listener
	srv   *http.Server
	done  chan struct{}
	conns sync.WaitGroup // one per accepted connection, until it closes
}

var pageContentTypes = map[string]string{
	"/metrics":      "text/plain; version=0.0.4; charset=utf-8",
	"/metrics.json": "application/json",
	"/healthz":      "application/json",
	"/components":   "application/json",
	"/loops":        "application/json",
	"/alerts":       "application/json",
	"/incidents":    "application/json",
	"/fluid":        "application/json",
	"/config":       "application/json",
}

// maxPostBody bounds POST request bodies (config patches are small); a
// larger body is refused with 413 and never reaches the handler.
const maxPostBody = 1 << 20

// postBodyTimeout bounds how long a POST body may take to arrive once its
// headers have: a client that stalls its body, or sends part of it and
// stays connected, gets 400 when it runs out instead of holding its
// connection and handler for as long as it likes.
var postBodyTimeout = 10 * time.Second

// StartAdmin listens on addr (e.g. ":8080" or "127.0.0.1:0" for an
// ephemeral port) and serves pub's pages. It returns once the listener
// is bound, so Addr() is immediately valid.
func StartAdmin(addr string, pub *Publisher) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	a := &AdminServer{pub: pub, ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	for path, ctype := range pageContentTypes {
		path, ctype := path, ctype
		mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
			if req.Method == http.MethodPost {
				fn, ok := a.pub.postHandler(path)
				if !ok {
					http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
					return
				}
				// net/http's own writer supports deadlines; without one the
				// body is merely unbounded in time, so the error changes nothing.
				_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(postBodyTimeout))
				body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxPostBody))
				if err != nil {
					var tooLarge *http.MaxBytesError
					if errors.As(err, &tooLarge) {
						http.Error(w, "request body over 1 MiB", http.StatusRequestEntityTooLarge)
						return
					}
					http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
					return
				}
				status, resp := fn(body)
				w.Header().Set("Content-Type", ctype)
				w.WriteHeader(status)
				w.Write(resp)
				return
			}
			page, ok := a.pub.Get(path)
			if !ok {
				http.Error(w, "snapshot not yet published", http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", ctype)
			w.Write(page)
		})
	}
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second,
		ConnState: func(_ net.Conn, state http.ConnState) {
			switch state {
			case http.StateNew: // on the serve loop, before Serve can return
				a.conns.Add(1)
			case http.StateClosed, http.StateHijacked:
				a.conns.Done()
			}
		}}
	go func() {
		a.srv.Serve(ln)
		close(a.done)
	}()
	return a, nil
}

// Addr returns the bound listen address (host:port).
func (a *AdminServer) Addr() string {
	if a == nil {
		return ""
	}
	return a.ln.Addr().String()
}

// Close stops the listener, closes every connection, and waits for the
// serve loop and each connection's handler to finish: a request in flight,
// even one whose body is stalled, ends with its connection, and no handler
// runs (or submits a patch) after Close returns.
func (a *AdminServer) Close() error {
	if a == nil {
		return nil
	}
	err := a.srv.Close()
	<-a.done
	a.conns.Wait()
	return err
}

// Health is the /healthz wire shape. Status is "invariant-violation"
// when a checker tripped, "degraded" while any SLO objective's most
// recent window missed its bound (the burning objectives are listed),
// and "ok" otherwise.
type Health struct {
	Status       string   `json:"status"`
	Time         float64  `json:"time"`
	Events       uint64   `json:"events_processed"`
	Components   int      `json:"components"`
	Burning      []string `json:"burning_objectives,omitempty"`
	ActiveAlerts int      `json:"active_alerts"`
}

// RenderHealth renders the /healthz document. burning comes from
// SLOEngine.Burning; violation from the invariant harness.
func RenderHealth(now float64, events uint64, components int, violation bool, burning []string, activeAlerts int) []byte {
	status := "ok"
	switch {
	case violation:
		status = "invariant-violation"
	case len(burning) > 0:
		status = "degraded"
	}
	doc := Health{Status: status, Time: now, Events: events, Components: components,
		Burning: burning, ActiveAlerts: activeAlerts}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}

// LoopStatus is the /loops wire shape for one control loop: identity,
// sensor state, thresholds and hysteresis, and the decision tally.
type LoopStatus struct {
	Name          string  `json:"name"`
	Tier          string  `json:"tier"`
	Running       bool    `json:"running"`
	PeriodSeconds float64 `json:"period_seconds"`
	Samples       int     `json:"samples"`
	LastValue     float64 `json:"last_value"`
	WindowSeconds float64 `json:"window_seconds"`
	WindowCount   int     `json:"window_count"`
	WindowFull    bool    `json:"window_full"`
	MinThreshold  float64 `json:"min_threshold"`
	MaxThreshold  float64 `json:"max_threshold"`
	// Distance from the smoothed value to the nearest threshold;
	// negative when outside the band.
	ThresholdDistance float64 `json:"threshold_distance"`
	Inhibited         bool    `json:"inhibited"`
	InhibitedUntil    float64 `json:"inhibited_until"`
	Grows             int     `json:"grows"`
	Shrinks           int     `json:"shrinks"`
	Replicas          int     `json:"replicas"`
}
