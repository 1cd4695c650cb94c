package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dfdeques/internal/grt"
	"dfdeques/internal/serve/api"
)

// TestStatusCodesUncoveredFree: a job that failed because it freed memory
// its budget never charged (grt.ErrUncoveredFree, however wrapped)
// reports Code "uncovered_free" on the wire; a job that failed with any
// other error reports no code.
func TestStatusCodesUncoveredFree(t *testing.T) {
	for _, tc := range []struct {
		err  error
		code api.ErrorCode
	}{
		{fmt.Errorf("job 7: %w", grt.ErrUncoveredFree), api.CodeUncoveredFree},
		{errors.New("thread panicked"), ""},
	} {
		j := &job{id: "j1", tenant: &tenant{name: "alice"}, done: make(chan struct{})}
		j.finish(jobResult{}, tc.err)
		st := j.status()
		if st.Status != "failed" || st.Code != tc.code || st.Error != tc.err.Error() {
			t.Errorf("%v: status %q, code %q, error %q; want failed, %q", tc.err, st.Status, st.Code, st.Error, tc.code)
		}
		wire, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(wire), `"code":"uncovered_free"`); got != (tc.code != "") {
			t.Errorf("%v: wire form %s", tc.err, wire)
		}
	}
}
