package serve

import (
	"encoding/json"
	"net/http"
)

// Error codes used in the /v1 error envelope.
const (
	CodeBadJSON          = "bad_json"
	CodeInvalidRequest   = "invalid_request"
	CodePayloadTooLarge  = "payload_too_large"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotFound         = "not_found"
	CodeQueueFull        = "queue_full"
	CodeTimeout          = "timeout"
	CodeCanceled         = "canceled"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal"
)

// ErrorBody is the machine-readable error inside the envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the uniform error shape for every route:
// {"error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// apiError carries an HTTP status alongside the envelope body.
type apiError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter, when non-empty, becomes a Retry-After header (429s).
	RetryAfter string
}

func (e *apiError) Error() string { return e.Code + ": " + e.Message }

func badRequest(code, msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: code, Message: msg}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing useful to do.
		_ = err
	}
}

func writeError(w http.ResponseWriter, e *apiError) {
	if e.RetryAfter != "" {
		w.Header().Set("Retry-After", e.RetryAfter)
	}
	writeJSON(w, e.Status, ErrorEnvelope{Error: ErrorBody{Code: e.Code, Message: e.Message}})
}

// method wraps a handler with HTTP method enforcement.
func method(verb string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != verb {
			w.Header().Set("Allow", verb)
			writeError(w, &apiError{
				Status:  http.StatusMethodNotAllowed,
				Code:    CodeMethodNotAllowed,
				Message: verb + " required",
			})
			return
		}
		h(w, r)
	}
}
