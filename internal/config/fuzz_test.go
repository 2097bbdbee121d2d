package config

import (
	"testing"
)

// The four formats take the bytes of a file a person may have edited, so
// each parser is fuzzed for render∘parse: whatever text a parser accepts
// must render to text it accepts again, and that rendering is a fixpoint
// from its first application on (the second render equals the first).
// Seeds are the sample documents of config_test.go; found inputs go under
// testdata/fuzz/<target>.

// fixpoint parses text, renders it, then parses and renders the
// rendering; accepted input must reach a fixpoint after one application.
func fixpoint[T any](t *testing.T, text string, parse func(string) (T, error), render func(T) (string, error)) {
	t.Helper()
	doc, err := parse(text)
	if err != nil {
		return
	}
	once, err := render(doc)
	if err != nil {
		return // the document cannot be written back; nothing to compare
	}
	back, err := parse(once)
	if err != nil {
		t.Fatalf("accepted %q but refuses its rendering %q: %v", text, once, err)
	}
	twice, err := render(back)
	if err != nil || twice != once {
		t.Fatalf("rendering of %q moved:\n--- once:\n%s\n--- twice:\n%s (%v)", text, once, twice, err)
	}
}

func FuzzHTTPDConf(f *testing.F) {
	for _, seed := range []string{sampleHTTPD, "", "\n", "Listen 80", "# c\n\n  Listen   80  \n", "Listen\n"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fixpoint(t, text, ParseHTTPDConf, func(c *HTTPDConf) (string, error) { return c.Render(), nil })
	})
}

func FuzzServerXML(f *testing.F) {
	doc := NewServerXML("tomcat1")
	doc.SetConnector("AJP/1.3", 8009, "node2")
	doc.SetJDBC("jdbc/rubis", "com.mysql.jdbc.Driver", "jdbc:mysql://node3:3306/rubis")
	text, err := doc.Render()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{text, "", "<Server/>", `<Server name="a"><Connector protocol="HTTP/1.1" port="x"/></Server>`} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fixpoint(t, text, ParseServerXML, (*ServerXML).Render)
	})
}

func FuzzMyCnf(f *testing.F) {
	for _, seed := range []string{sampleMyCnf, "", "[mysqld]\nport=3306\nport = 3307\n", "[a]\nflag\n[a]\nk=v\n", "[unclosed\n"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fixpoint(t, text, ParseMyCnf, func(c *MyCnf) (string, error) { return c.Render(), nil })
	})
}

func FuzzWorkerProperties(f *testing.F) {
	w := NewWorkerProperties()
	w.SetWorker(Worker{Name: "tomcat1", Host: "node3", Port: 8098, LBFactor: 100})
	w.SetWorker(Worker{Name: "tomcat2", Host: "node4", Port: 8098, LBFactor: 50})
	for _, seed := range []string{w.Render(), "", "worker.list=a,b\n", "# c\n! c\nk = v\n", "novalue\n"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fixpoint(t, text, ParseWorkerProperties, func(w *WorkerProperties) (string, error) { return w.Render(), nil })
	})
}
