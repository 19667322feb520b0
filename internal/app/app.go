// Package app defines the interfaces every TailBench application implements
// and the configuration shared by all of them. The harness (internal/core)
// drives any application exclusively through these interfaces, which is what
// lets a single harness implementation support all three measurement
// configurations (integrated, loopback, networked) described in Sec. IV of
// the paper.
package app

import (
	"errors"
	"fmt"
)

// Request is an opaque, serialized application request. Using a byte slice
// at the interface boundary keeps the integrated and networked
// configurations identical from the application's point of view: in both
// cases the server sees exactly the bytes the client produced.
type Request []byte

// Response is an opaque, serialized application response.
type Response []byte

// Server is a latency-critical application instance. Process is called by
// harness worker goroutines ("worker threads" in the paper); implementations
// must be safe for concurrent use by the configured number of threads.
type Server interface {
	// Name returns the application's short name (e.g. "xapian").
	Name() string
	// Process handles one request synchronously on the calling goroutine and
	// returns the serialized response.
	Process(req Request) (Response, error)
	// Close releases application resources.
	Close() error
}

// Client generates requests for an application and validates responses.
// The harness creates one Client per client connection, each with its own
// seed.
type Client interface {
	// NextRequest returns the next serialized request. It is called by one
	// goroutine at a time.
	NextRequest() Request
	// CheckResponse validates the response for a request this client
	// generated. It returns an error if the response is malformed or
	// semantically wrong (used by integration tests and the harness's
	// optional validation mode). It must be safe for concurrent use: the
	// harness's worker goroutines validate their responses in parallel.
	CheckResponse(req Request, resp Response) error
}

// Config carries the knobs common to all applications.
type Config struct {
	// Threads is the number of worker threads the server will be driven
	// with. Applications that size internal structures per thread may use
	// it; the harness owns the actual goroutines.
	Threads int
	// Scale shrinks or grows the application's dataset relative to its
	// default size. 1.0 is the default configuration described in DESIGN.md.
	Scale float64
	// Seed makes dataset generation deterministic.
	Seed int64
}

// Normalize fills in defaults for zero fields.
func (c Config) Normalize() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Factory constructs servers and clients for one application. The registry
// in the public tailbench package maps application names to factories.
type Factory interface {
	// Name returns the application name.
	Name() string
	// NewServer builds an application server instance.
	NewServer(cfg Config) (Server, error)
	// NewClient builds a request generator. seed decorrelates multiple
	// clients and repeated runs.
	NewClient(cfg Config, seed int64) (Client, error)
}

// ErrBadRequest is returned by servers when a request cannot be decoded.
var ErrBadRequest = errors.New("app: malformed request")

// ErrBadResponse is returned by clients when a response fails validation.
var ErrBadResponse = errors.New("app: response failed validation")

// BadResponsef wraps ErrBadResponse with a formatted explanation.
func BadResponsef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadResponse, fmt.Sprintf(format, args...))
}

// BadRequestf wraps ErrBadRequest with a formatted explanation.
func BadRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}
