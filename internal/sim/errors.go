package sim

import "errors"

// ErrClosed reports an operation on a closed mailbox. It is a
// package-level value so callers can test with errors.Is.
var ErrClosed = errors.New("sim: mailbox closed")
