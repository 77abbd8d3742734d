//go:build !unix

package wsrpc

// rawRead is nil where read(2) does not read a connection's descriptor:
// every read session is filled by its connection's Read.
var rawRead func(fd int, p []byte) (int, error)
