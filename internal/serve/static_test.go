package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"twodprof/internal/asmcheck"
	"twodprof/internal/core"
	"twodprof/internal/progs"
)

// TestIngestKernelAnnotation: an ingest naming its kernel gets a report
// carrying the asmcheck static prefilter column, with verdicts that
// match running the pipeline directly; sessions without the parameter
// stay unannotated (wire format unchanged).
func TestIngestKernelAnnotation(t *testing.T) {
	srv := startServer(t, testConfig())
	raw := kernelTrace(t, "typesum", "train", false)

	if status, body := postTrace(t, srv, "/v1/ingest?session=ann&kernel=typesum", raw); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	status, body := get(t, srv, "/v1/report?session=ann")
	if status != http.StatusOK {
		t.Fatalf("report: %d %s", status, body)
	}
	var rep core.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	k, _ := progs.KernelByName("typesum")
	want := asmcheck.StaticClasses(k.Prog)
	if len(rep.StaticClass) == 0 {
		t.Fatalf("annotated session report has no StaticClass; body:\n%s", body)
	}
	for pc, class := range rep.StaticClass {
		if want[pc] != class {
			t.Errorf("pc %d: served class %q, asmcheck says %q", pc, class, want[pc])
		}
	}
	if v := rep.StaticViolations(); len(v) != 0 {
		t.Errorf("served report contradicts the prefilter at %v", v)
	}

	// Without ?kernel the report must not mention the column at all.
	if status, body := postTrace(t, srv, "/v1/ingest?session=plain", raw); status != http.StatusOK {
		t.Fatalf("plain ingest: %d %s", status, body)
	}
	_, body = get(t, srv, "/v1/report?session=plain")
	if strings.Contains(string(body), `"static"`) {
		t.Errorf("unannotated report mentions static:\n%s", body)
	}
}

func TestIngestUnknownKernel(t *testing.T) {
	srv := startServer(t, testConfig())
	status, body := postTrace(t, srv, "/v1/ingest?session=x&kernel=nope", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", status, body)
	}
	if !strings.Contains(string(body), "unknown kernel") {
		t.Errorf("body %q does not diagnose the kernel name", body)
	}
	// The error lists the available kernels so the caller can self-serve.
	for _, name := range progs.KernelNames() {
		if !strings.Contains(string(body), name) {
			t.Errorf("body %q does not list kernel %q", body, name)
		}
	}
}
