//go:build unix

package wsrpc

import "syscall"

// rawRead is read(2), which fills a read session on a descriptor.
var rawRead = syscall.Read
