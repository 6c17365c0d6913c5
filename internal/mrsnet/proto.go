package mrsnet

// Protocol messages. One Msg shape serves both directions; Op selects the
// meaning and which fields matter. Requests carry a client-chosen Seq that
// the matching response echoes, so a client may pipeline requests for many
// sessions over one connection. Hit delivery is unsolicited (no Seq):
// OpHits frames carry batches coalesced by the daemon's per-connection
// writer.
//
// Session ids (SID) are client-chosen strings, scoped to the connection.
// The daemon places each session onto a shard by consistent hash of the
// SID, so a client re-attaching the same id lands on the same shard.
const (
	// Client → daemon.
	OpHello   = "hello"   // negotiate per-connection hit delivery (Batch, FlushUS)
	OpAttach  = "attach"  // create a session: Workload, Scale, Strategy
	OpRegionC = "region+" // create monitored region: Addr, Size
	OpRegionD = "region-" // delete monitored region: Addr, Size
	OpRun     = "run"     // run to completion; response carries the result
	OpPatch   = "patch"   // toggle text index Index to unimp (Unimp) or original
	OpDetach  = "detach"  // tear the session down

	// Daemon → client.
	OpResp = "resp" // response to the request with the same Seq
	OpHits = "hits" // async batch of watchpoint hits
)

// Msg is one protocol frame body.
type Msg struct {
	Op  string `json:"op"`
	Seq uint64 `json:"seq,omitempty"`
	SID string `json:"sid,omitempty"`

	// OpHello: per-connection hit delivery tuning. Batch 0 keeps the daemon
	// default; 1 disables coalescing (one frame per hit — the measured
	// baseline for the batching win); FlushUS is the coalescing deadline in
	// microseconds (0 = daemon default).
	Batch   int `json:"batch,omitempty"`
	FlushUS int `json:"flush_us,omitempty"`

	// OpAttach.
	Workload string `json:"workload,omitempty"`
	Scale    int    `json:"scale,omitempty"`
	Strategy string `json:"strategy,omitempty"`

	// OpRegionC / OpRegionD. Kind selects the access kinds that deliver
	// hits: "store", "load", "all", or "transition" (store-triggered,
	// filtered by the value predicate in Pred/PredArg). Empty means "all" —
	// the legacy behavior, so old clients are unaffected. Pred is one of
	// "changed", "nonzero", "sign", "mask", "eq" (empty = "changed") and is
	// honored only with Kind "transition". A "load" region is refused with
	// an error frame when the session's program carries no read checks.
	Addr    uint32 `json:"addr,omitempty"`
	Size    uint32 `json:"size,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Pred    string `json:"pred,omitempty"`
	PredArg uint32 `json:"pred_arg,omitempty"`

	// OpPatch: the mid-run text-patch toggle (the wire form of the stress
	// harness's copy-on-write churn). Index is the text index; Unimp picks
	// unimp vs the image's original instruction. Skipped (OK response with
	// Skipped set) until the debuggee has retired at least one instruction.
	Index   int32 `json:"index,omitempty"`
	Unimp   bool  `json:"unimp,omitempty"`
	Skipped bool  `json:"skipped,omitempty"`

	// OpResp.
	OK  bool   `json:"ok,omitempty"`
	Err string `json:"err,omitempty"`
	// Attach response: which shard the session was placed on.
	Shard int `json:"shard,omitempty"`
	// Run response: the run result plus the server-side hit total (every
	// one of which has been flushed to this connection before the response,
	// so a client that tallies OpHits frames can reconcile exactly).
	Code     int32  `json:"code,omitempty"`
	Cycles   int64  `json:"cycles,omitempty"`
	Instrs   int64  `json:"instrs,omitempty"`
	Output   string `json:"output,omitempty"`
	HitTotal int64  `json:"hit_total,omitempty"`

	// OpHits.
	Hits []HitRec `json:"hits,omitempty"`
}

// HitRec is one watchpoint hit as delivered on the wire.
type HitRec struct {
	SID    string `json:"sid"`
	Addr   uint32 `json:"addr"`
	Size   int32  `json:"size"`
	Read   bool   `json:"read,omitempty"`
	PC     int32  `json:"pc"`
	Instrs int64  `json:"instrs"`
	// Old and New carry the before/after word values of a transition-region
	// hit; both zero for other hits.
	Old uint32 `json:"old,omitempty"`
	New uint32 `json:"new,omitempty"`
}
