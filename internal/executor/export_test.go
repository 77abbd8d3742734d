package executor

// DecodeChunks is the bytes of the chunks e's Slots+1 grant decoders hold
// (jsonwire.Reader.Chunks). Read it once e has stopped.
func DecodeChunks(e *Executor) (n int) {
	for i := range e.readers {
		n += e.readers[i].Chunks()
	}
	return n
}
