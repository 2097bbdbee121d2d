package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"jade/internal/refresh"
)

// The admin plane's one write path against clients that misbehave: a body
// that stalls after its headers, a body cut off by a disconnect, and the
// server closed while such a request is in flight.

const patch = `{"sizing":{"app":{"max_threshold":0.85}}}`

// startBodyPost opens a connection and sends a POST /config whose headers
// promise body bytes and ask for "100 Continue", waits for that interim
// answer (the handler is then reading the body), and sends the first sent
// bytes of body.
func startBodyPost(t *testing.T, addr, body string, sent int) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fmt.Fprintf(c, "POST /config HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nExpect: 100-continue\r\n\r\n", addr, len(body))
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusContinue {
		t.Fatalf("waiting for 100 Continue: %v, %v", resp, err)
	}
	if _, err := io.WriteString(c, body[:sent]); err != nil {
		t.Fatal(err)
	}
	return c, br
}

// postWhole sends a complete POST /config on a connection of its own and
// returns the status.
func postWhole(t *testing.T, addr, body string) int {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Post("http://"+addr+"/config", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// waitGoroutines waits up to two seconds for the goroutine count to fall
// back to base, and fails with every stack if it does not.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the server started:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// bodies records what reached the POST handler.
type bodies struct {
	mu  sync.Mutex
	got []string
}

func (b *bodies) handle(body []byte) (int, []byte) {
	b.mu.Lock()
	b.got = append(b.got, string(body))
	b.mu.Unlock()
	return http.StatusAccepted, nil
}

func (b *bodies) seen() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.got...)
}

// TestAdminStalledBodyTimesOut: a client that sends its headers and part
// of its body, then nothing, gets 400 once postBodyTimeout runs out; its
// partial body never reaches the handler, and the server answers others
// meanwhile.
func TestAdminStalledBodyTimesOut(t *testing.T) {
	old := postBodyTimeout
	postBodyTimeout = 300 * time.Millisecond
	t.Cleanup(func() { postBodyTimeout = old })
	var b bodies
	pub := NewPublisher()
	pub.SetPostHandler("/config", b.handle)
	srv, err := StartAdmin("127.0.0.1:0", pub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	start := time.Now()
	c, br := startBodyPost(t, srv.Addr(), patch, 10)
	if status := postWhole(t, srv.Addr(), patch); status != http.StatusAccepted {
		t.Fatalf("a whole POST beside the stalled one: status %d", status)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("stalled POST got no answer: %v", err)
	}
	resp.Body.Close()
	if took := time.Since(start); resp.StatusCode != http.StatusBadRequest || took < postBodyTimeout {
		t.Fatalf("stalled POST: status %d after %v, want 400 after at least %v", resp.StatusCode, took, postBodyTimeout)
	}
	if got := b.seen(); len(got) != 1 || got[0] != patch {
		t.Fatalf("handler saw %q, want only the whole POST's body", got)
	}
}

// TestAdminAbortedBody: a client that disconnects halfway through its
// body leaves nothing behind: the handler never sees the half body, the
// connection's goroutines end without Close, and the next POST is served.
func TestAdminAbortedBody(t *testing.T) {
	var b bodies
	pub := NewPublisher()
	pub.SetPostHandler("/config", b.handle)
	base := runtime.NumGoroutine()
	srv, err := StartAdmin("127.0.0.1:0", pub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, _ := startBodyPost(t, srv.Addr(), patch, len(patch)/2)
	c.Close()
	waitGoroutines(t, base+1) // the serve loop
	if got := b.seen(); len(got) != 0 {
		t.Fatalf("an aborted body reached the handler: %q", got)
	}
	if status := postWhole(t, srv.Addr(), patch); status != http.StatusAccepted {
		t.Fatalf("POST after an aborted one: status %d", status)
	}
	if got := b.seen(); len(got) != 1 || got[0] != patch {
		t.Fatalf("handler saw %q, want the whole POST's body", got)
	}
}

// TestAdminCloseWithRequestInFlight: Close with a POST whose body is
// stalled (well inside postBodyTimeout) returns promptly, no goroutine of
// the server outlives it, the stalled body is never submitted, and a patch
// that was queued before still drains after the server is gone.
func TestAdminCloseWithRequestInFlight(t *testing.T) {
	hub := refresh.NewHub(nil)
	var applied []string
	hub.Bind(nil, func(_ float64, source string, p []byte) error {
		applied = append(applied, source+" "+string(p))
		return nil
	})
	pub := NewPublisher()
	pub.SetPostHandler("/config", func(body []byte) (int, []byte) {
		if err := hub.Enqueue(refresh.SourceAdmin, body); err != nil {
			return http.StatusConflict, []byte(err.Error())
		}
		return http.StatusAccepted, nil
	})
	base := runtime.NumGoroutine()
	srv, err := StartAdmin("127.0.0.1:0", pub)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if status := postWhole(t, addr, patch); status != http.StatusAccepted || hub.Pending() != 1 {
		t.Fatalf("queued POST: status %d, %d pending", status, hub.Pending())
	}
	stalled, br := startBodyPost(t, addr, patch, 10)
	headersOnly, _ := startBodyPost(t, addr, patch, 0)

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with a request in flight", took)
	}
	waitGoroutines(t, base)
	for _, c := range []net.Conn{stalled, headersOnly} {
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
	if resp, err := http.ReadResponse(br, nil); err == nil && resp.StatusCode == http.StatusAccepted {
		t.Fatal("the stalled POST was accepted")
	}
	if n := hub.Pending(); n != 1 {
		t.Fatalf("%d patches pending after Close, want the one queued before", n)
	}
	if n := hub.Drain(0); n != 1 || len(applied) != 1 || applied[0] != refresh.SourceAdmin+" "+patch {
		t.Fatalf("drained %d, applied %q", n, applied)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("the admin address still accepts connections after Close")
	}
}

// TestAdminCloseWaitsForHandler: a handler already running when Close is
// called finishes before Close returns, so nothing is submitted after it.
func TestAdminCloseWaitsForHandler(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	pub := NewPublisher()
	pub.SetPostHandler("/config", func([]byte) (int, []byte) {
		close(entered)
		<-release
		return http.StatusAccepted, nil
	})
	srv, err := StartAdmin("127.0.0.1:0", pub)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		if resp, err := client.Post("http://"+srv.Addr()+"/config", "application/json", bytes.NewReader([]byte(patch))); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the handler finished")
	}
}
