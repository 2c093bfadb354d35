package event

// BatchSink is implemented by sinks that can consume a run of
// consecutive accesses by a single thread in one call. All accesses in
// the run share the thread and the lock environment: trace replay cuts
// a run at every monitor and lifecycle event. The batch slice is only
// valid for the duration of the call; the producer reuses its backing
// buffer.
type BatchSink interface {
	Sink
	AccessBatch(batch []Access)
}

// AccessBatch implements BatchSink for MultiSink: batch-aware children
// receive the whole batch, the rest receive the accesses one by one —
// in both cases in original order.
func (m MultiSink) AccessBatch(batch []Access) {
	for _, s := range m {
		if bs, ok := s.(BatchSink); ok {
			bs.AccessBatch(batch)
			continue
		}
		for _, a := range batch {
			s.Access(a)
		}
	}
}

// AccessBatch implements BatchSink.
func (NullSink) AccessBatch(batch []Access) {}
