package telemetry

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

// TestTraceparentRoundTrip is the wire-format property test: any valid
// trace context must survive render → parse unchanged, and the rendered
// form must be a structurally valid traceparent header. Run over minted
// contexts and over adversarially random ID bytes.
func TestTraceparentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var tc TraceContext
		if i%2 == 0 {
			tc = NewTrace()
			tc.Flags = byte(rng.Intn(256))
		} else {
			rng.Read(tc.TraceID[:])
			rng.Read(tc.SpanID[:])
			tc.Flags = byte(rng.Intn(256))
			if !tc.Valid() {
				continue // all-zero draw: not representable on the wire
			}
		}
		h := tc.Traceparent()
		if len(h) != 55 || !strings.HasPrefix(h, "00-") {
			t.Fatalf("malformed header %q", h)
		}
		if h != strings.ToLower(h) {
			t.Fatalf("header not lowercase: %q", h)
		}
		got, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", h, err)
		}
		if got != tc {
			t.Fatalf("round trip changed context: sent %+v got %+v", tc, got)
		}
		if got.TraceIDString() != h[3:35] || got.SpanIDString() != h[36:52] {
			t.Fatalf("hex accessors disagree with header %q: %s %s", h, got.TraceIDString(), got.SpanIDString())
		}
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := NewTrace().Traceparent()
	cases := map[string]string{
		"empty":          "",
		"truncated":      valid[:54],
		"long":           valid + "0",
		"bad dash":       valid[:35] + "_" + valid[36:],
		"uppercase hex":  strings.ToUpper(valid),
		"version ff":     "ff" + valid[2:],
		"version 01":     "01" + valid[2:],
		"zero trace id":  "00-00000000000000000000000000000000-" + valid[36:],
		"zero span id":   valid[:36] + "0000000000000000-01",
		"non-hex":        valid[:3] + "zz" + valid[5:],
		"missing dashes": strings.ReplaceAll(valid, "-", "x"),
	}
	for name, in := range cases {
		if _, err := ParseTraceparent(in); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted", name, in)
		}
	}
	if _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
}

func TestTraceContextChild(t *testing.T) {
	tc := NewTrace()
	seen := map[[8]byte]bool{tc.SpanID: true}
	for i := 0; i < 100; i++ {
		ch := tc.Child()
		if ch.TraceID != tc.TraceID {
			t.Fatal("Child changed the trace ID")
		}
		if seen[ch.SpanID] {
			t.Fatalf("Child reused span ID after %d draws", i)
		}
		seen[ch.SpanID] = true
	}
	if (TraceContext{}).Child().Valid() {
		t.Error("Child of an invalid context is valid")
	}
	if (TraceContext{}).Traceparent() != "" {
		t.Error("invalid context rendered a header")
	}
}

// TestTracerSpanAnnotation drives a minted trace context through a tracer
// the way vsserved does — root span from the wire context, nested children
// — and checks the Chrome-trace events carry the trace ID and a correct
// parent-chain of span IDs.
func TestTracerSpanAnnotation(t *testing.T) {
	tc := NewTrace()
	tr := NewTracer()
	root := tr.StartTrace("job", tc)
	child := root.Start("solve")
	grand := child.Start("pcg")
	grand.End()
	child.End()
	root.End()

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	byName := map[string]TraceEvent{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	want := tc.TraceIDString()
	for name, e := range byName {
		if e.TraceID != want {
			t.Errorf("%s: trace ID %q, want %q", name, e.TraceID, want)
		}
		if e.SpanID == "" || len(e.SpanID) != 16 {
			t.Errorf("%s: bad span ID %q", name, e.SpanID)
		}
	}
	r, c, g := byName["job"], byName["solve"], byName["pcg"]
	if r.ParentSpanID != tc.SpanIDString() {
		t.Errorf("root parent = %q, want submitter span %q", r.ParentSpanID, tc.SpanIDString())
	}
	if c.ParentSpanID != r.SpanID || g.ParentSpanID != c.SpanID {
		t.Errorf("parent chain broken: root=%s solve(parent=%s) pcg(parent=%s)", r.SpanID, c.ParentSpanID, g.ParentSpanID)
	}
	ids := map[string]bool{r.SpanID: true, c.SpanID: true, g.SpanID: true}
	if len(ids) != 3 {
		t.Error("span IDs not unique")
	}

	// A plain span on the same tracer stays unannotated.
	sp := tr.Start("plain")
	sp.End()
	for _, e := range tr.Events() {
		if e.Name == "plain" && (e.TraceID != "" || e.SpanID != "") {
			t.Errorf("unannotated span carries trace fields: %+v", e)
		}
	}
}

// TestScopeLayering checks that a job scope is a registry of its own: its
// writes land in the scope and never in the same-named process instrument.
func TestScopeLayering(t *testing.T) {
	scope := NewScope(NewTrace())
	name := "test_scope_layering_total"
	scope.Counter(name).Add(2)
	scope.Counter(name).Add(3)
	if got := scope.Counter(name).Value(); got != 5 {
		t.Fatalf("scope counter = %d, want 5", got)
	}
	if _, ok := std.Snapshot().Counters[name]; ok {
		t.Fatalf("scope write created process counter %s", name)
	}

	// Nil scope: every path is a no-op.
	var ns *Scope
	ns.Counter(name).Add(1)
	ns.Health().Offer(&ConvergenceReport{Iterations: 7})
	if ns.Registry() != nil || ns.Health().Load() != nil || ns.Trace().Valid() {
		t.Error("nil scope leaked state")
	}
}

func TestScopeContextPlumbing(t *testing.T) {
	tc := NewTrace()
	scope := NewScope(tc)
	ctx := WithScope(context.Background(), scope)
	if got := ScopeFrom(ctx); got != scope {
		t.Fatal("ScopeFrom did not return the attached scope")
	}
	if got := TraceContextFrom(ctx); got != tc {
		t.Fatalf("TraceContextFrom via scope = %+v, want %+v", got, tc)
	}
	// A directly attached context wins over the scope's.
	other := NewTrace()
	if got := TraceContextFrom(WithTraceContext(ctx, other)); got != other {
		t.Fatalf("direct trace context did not win: %+v", got)
	}
	if ScopeFrom(context.Background()) != nil || TraceContextFrom(context.Background()).Valid() {
		t.Error("empty context produced trace state")
	}
}

// TestStartSpanCtxDisabledZeroAlloc pins the standing invariant: with
// tracing disabled, the context-annotated span path allocates nothing.
func TestStartSpanCtxDisabledZeroAlloc(t *testing.T) {
	DisableTracing()
	ctx := WithTraceContext(context.Background(), NewTrace())
	if avg := testing.AllocsPerRun(1000, func() {
		sp := StartSpanCtx(ctx, "solve")
		sp.Start("child").End()
		sp.End()
	}); avg != 0 {
		t.Errorf("disabled StartSpanCtx path allocates %.1f/op, want 0", avg)
	}
}

func BenchmarkStartSpanCtxDisabled(b *testing.B) {
	DisableTracing()
	ctx := WithTraceContext(context.Background(), NewTrace())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpanCtx(ctx, "solve")
		sp.End()
	}
}

func BenchmarkParseTraceparent(b *testing.B) {
	h := NewTrace().Traceparent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseTraceparent(h); err != nil {
			b.Fatal(err)
		}
	}
}
