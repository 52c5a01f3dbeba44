package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// failingBody yields a prefix of a request body, then fails the way a
// client abort or a malformed chunked encoding does.
type failingBody struct{ r io.Reader }

func (b *failingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		return n, errors.New("unexpected EOF in chunked body")
	}
	return n, err
}

// TestBodyReadErrors: on every endpoint that reads a body, a body that
// fails mid-stream is answered 400 "cannot read request body", and only
// a body over MaxBody is answered 413.
func TestBodyReadErrors(t *testing.T) {
	s, err := New(Options{Workers: 1, MaxBody: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, ep := range []struct{ name, path string }{
		{"evaluate", "/v1/evaluate"},
		{"search", "/v1/search?objective=lex"},
		{"batch", "/v1/batch"},
		{"session-open", "/v1/session"},
		{"session-delta", "/v1/session/abc/delta"},
	} {
		t.Run(ep.name, func(t *testing.T) {
			for _, tc := range []struct {
				name   string
				body   io.Reader
				status int
				msg    string
			}{
				{"aborted", &failingBody{strings.NewReader(`{"tors":`)}, http.StatusBadRequest, "cannot read request body"},
				{"too large", strings.NewReader(`{"name":"` + strings.Repeat("x", 100) + `"}`), http.StatusRequestEntityTooLarge, "request body too large"},
			} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, tc.body))
				var got struct{ Error string }
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Fatalf("%s: body %q: %v", tc.name, rec.Body.String(), err)
				}
				if rec.Code != tc.status || got.Error != tc.msg {
					t.Errorf("%s: status %d %q, want %d %q", tc.name, rec.Code, got.Error, tc.status, tc.msg)
				}
			}
		})
	}
}
