package firmware

// FreeStreams returns the number of streams on the free list.
func (fw *Firmware) FreeStreams() int { return len(fw.pool.free) }
