package main

import "asti/internal/hdr"

// layerTrimRRSet reports the trim and rrset layers from a traced
// sample-ic run: selection spans from the timed policy wrapper, the
// policies' own counters, and the rrset kernel pass over the states
// campaign 0 captured.
func layerTrimRRSet(r *inprocRun, spans []span, m metrics) {
	sel := byName(spans).get("trim.select")
	m.quantileMs("trim.select_p50_ms", 0.5, sel.hist)
	m.quantileMs("trim.select_p90_ms", 0.9, sel.hist)
	m.set("trim.select_busy_s", sel.busy.Seconds())

	st := r.trimStats()
	m.set("trim.rounds", float64(st.Rounds))
	m.set("trim.sets", float64(st.Sets))
	m.set("trim.sets_reused", float64(st.SetsReused))
	m.set("trim.sets_refreshed", float64(st.SetsRefreshed))
	m.set("trim.full_regens", float64(st.FullRegens))
	m.set("trim.doublings", float64(st.Doublings))
	m.set("trim.hit_cap", float64(st.HitCap))
	m.set("trim.peak_pool_sets", float64(st.PeakPoolSize))
	m.ratio("trim.reuse_ratio", float64(st.SetsReused), float64(st.SetsReused+st.Sets))

	m.set("rrset.set_nodes", float64(st.SetNodes))
	m.set("rrset.edges_examined", float64(st.EdgesExamined))
	m.set("rrset.rng_draws", float64(st.RngDraws))
	m.ratio("rrset.draws_per_edge", float64(st.RngDraws), float64(st.EdgesExamined))
	m.ratio("rrset.nodes_per_set", float64(st.SetNodes), float64(st.Sets))

	k := runRRSetKernel(r.kernelStates(), r.seed)
	m.set("rrset.generate_us_per_set", k.usPerSet)
	m.set("rrset.generate_speedup", k.speedup)
	m.quantileMs("rrset.greedy_ms", 0.5, k.greedy)
	m.set("rrset.pool_mb", k.poolMB)
}

// layerServeJournal reports the serve and journal layers from a traced
// durable-churn run: spans around every manager and session call, the
// manager's counters, and the journal kernel pass over campaign 0's
// records.
func layerServeJournal(r *inprocRun, spans []span, kernelDir string, m metrics) error {
	by := byName(spans)
	for _, c := range []struct{ metric, span string }{
		{"serve.create_ms", "serve.create"},
		{"serve.lookup_ms", "serve.lookup"},
		{"serve.passivate_ms", "serve.passivate"},
		{"serve.close_ms", "serve.close"},
		{"serve.observe_plain_ms", "serve.observe"},
		{"serve.observe_ckpt_ms", "serve.observe_ckpt"},
	} {
		st := by.get(c.span)
		m.setN(c.metric, st.meanMs(), st.count)
	}
	prop := by.get("serve.propose")
	m.quantileMs("serve.propose_p50_ms", 0.5, prop.hist)
	m.quantileMs("serve.propose_p90_ms", 0.9, prop.hist)
	m.set("serve.propose_busy_s", prop.busy.Seconds())
	m.setN("serve.propose_self_ms", prop.selfMeanMs(), prop.count)

	r.mu.Lock()
	replay := append([]float64(nil), r.replay...)
	logBytes := append([]float64(nil), r.logBytes...)
	frames := r.frames
	r.mu.Unlock()
	var sum float64
	for _, v := range replay {
		sum += v
	}
	m.setN("serve.replay_rounds", safeDiv(sum, float64(len(replay))), len(replay))

	mt := r.mgr.Metrics()
	m.ratio("serve.restore_ratio", float64(mt.CheckpointRestores), float64(mt.Reactivations))
	m.count("serve.proposals", mt.Proposals)
	m.count("serve.observations", mt.Observations)
	m.count("serve.reactivations", mt.Reactivations)
	m.count("serve.checkpoints", mt.Checkpoints)
	m.count("serve.checkpoint_failures", mt.CheckpointFailures)
	m.count("serve.compactions", mt.Compactions)

	m.setN("journal.log_bytes_p50", hdr.QuantileOf(logBytes, 0.5), len(logBytes))
	m.count("journal.compacted_bytes", mt.CompactedBytes)
	m.count("journal.append_retries", mt.Journal.AppendRetries)
	m.count("journal.append_failures", mt.Journal.AppendFailures)
	m.count("journal.commits", mt.Creates+mt.Proposals+mt.Observations+mt.Checkpoints)
	k, err := runJournalKernel(kernelDir, frames)
	if err != nil {
		return err
	}
	m.quantileMs("journal.append_fsync_ms", 0.5, k.append)
	m.quantileMs("journal.load_ms", 0.5, k.load)
	return nil
}

// layerASMServe reports the asmserve layer from a traced http-fleet run:
// server-side step means from /metrics deltas, and the wire share of each
// step as the client mean minus the server mean.
func layerASMServe(fr *fleetRun, m metrics) {
	for _, op := range []string{"next", "observe"} {
		srv := fr.serverMeanMs(op)
		m.setN("asmserve.server_"+op+"_ms", srv, int(fr.rep.Steps[op].Count))
		m.setN("asmserve.wire_"+op+"_ms", fr.rep.Steps[op].MeanMs-srv, int(fr.rep.Steps[op].Count))
	}
	var retries uint64
	for _, n := range fr.rep.Retries {
		retries += n
	}
	m.count("asmserve.retries", retries)
	m.count("asmserve.unexpected", fr.rep.UnexpectedErrors())
	if fr.rep.Server != nil {
		m.set("asmserve.pool_bytes_peak", fr.rep.Server.PeakPoolBytes)
	}
}
