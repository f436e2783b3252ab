"""Hand-lowered batched stepper for the OOOVA and in-order machines.

This is the out-of-order counterpart of :mod:`repro.refsim.batched`: one
flat interpreter loop per same-kind instruction run, with every hot
component operation inlined against the component's own backing storage —
the reorder-buffer occupancy heap, the issue-queue departure heaps, the
per-class rename mapping/free-list dicts, the ``GapResource`` interval
lists of the vector units and the address bus, the scalar units' issue
slots and the memory pipeline's exit cursor.  Cold or semantically
involved paths (branch prediction, memory disambiguation, the load
elimination tag tables) stay behind their normal method calls.

Every inlined sequence is a verbatim transliteration of the scalar
handlers in :mod:`repro.ooo.machine` and the component methods they call,
in the same program order, so component snapshots, digests and the final
:class:`~repro.common.stats.SimStats` are bit-identical with the scalar
kernel.  The in-order machine shares the stepper: its single divergence —
the program-order issue gate — is threaded through as a flag, mirroring
how :class:`repro.machine.inorder._InOrderRun` overrides ``_issue_gate``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, List, Optional

from repro.common.errors import SimulationError
from repro.common.intervals import Interval
from repro.common.params import CommitModel
from repro.isa.registers import RegClass
from repro.machine.batched import (
    CLS_NAMES,
    K_BRANCH,
    K_SCALAR_LOAD,
    K_SCALAR_STORE,
    K_VECTOR_ALU,
    K_VECTOR_LOAD,
    K_VECTOR_STORE,
    LoweredTrace,
    gap_find,
    gap_insert,
    latency_tables,
    register_stepper,
)
from repro.machine.inorder import _InOrderRun
from repro.ooo.loadelim import tag_for
from repro.ooo.machine import _OOORun
from repro.ooo.mempipe import _PendingAccess
from repro.ooo.queues import QueueKind

_MEM_KINDS = frozenset(
    (K_VECTOR_LOAD, K_VECTOR_STORE, K_SCALAR_LOAD, K_SCALAR_STORE)
)


def _memtags(lowered: LoweredTrace) -> List[Any]:
    """Per-instruction memory tags, computed once per lowered trace.

    A tag depends only on the static access description (region, vl,
    stride), so the :func:`~repro.ooo.loadelim.tag_for` result can be
    shared across every run and configuration that replays the trace —
    :class:`~repro.ooo.loadelim.MemoryTag` is frozen and compared by
    value, so sharing one instance is indistinguishable from rebuilding.
    """
    tags = getattr(lowered, "_memtags", None)
    if tags is None:
        kinds = lowered.kind_code
        tags = [
            tag_for(dyn) if kinds[i] in _MEM_KINDS else None
            for i, dyn in enumerate(lowered.dyns)
        ]
        lowered._memtags = tags
    return tags


def _step(machine: Any, lowered: LoweredTrace, inorder: bool) -> None:
    """Advance ``machine`` over the whole lowered sequence (one slice)."""
    params = machine.params
    # build Interval and _PendingAccess rows through ``tuple.__new__``
    # directly: same object, minus the generated named-tuple ``__new__``
    # frame on every row
    iv_new = tuple.__new__
    lat = machine.lat
    scalar_lat, vector_lat = latency_tables(lat)
    lat_scalar_alu = lat.scalar_alu
    vector_startup = lat.vector_startup
    scalar_mem_lat = lat.scalar_mem
    mem_latency = params.memory.latency
    mispredict_penalty = params.branch_mispredict_penalty
    early_commit = params.commit_model is CommitModel.EARLY
    late_commit = not early_commit
    chain_fu_to_fu = params.chain_fu_to_fu
    chain_fu_to_store = params.chain_fu_to_store
    sle = machine.sle
    vle = machine.vle
    loadelim = machine.loadelim

    # tag tables indexed by register-class code (A, S, V, VM); mirrors
    # ``_tag_table_for`` with the loadelim-is-None guard folded in
    if loadelim is not None:
        tag_tables = (loadelim.a_tags, loadelim.s_tags, loadelim.vector_tags, None)
        le_tables = loadelim.all_tables()
        col_tag = _memtags(lowered)
    else:
        tag_tables = (None, None, None, None)
        le_tables = ()
        col_tag = ()

    # -- rename unit: per-class mapping / free-list / register backing ------
    files = machine.rename.files
    r_files = (
        files[RegClass.A],
        files[RegClass.S],
        files[RegClass.V],
        files[RegClass.VM],
    )
    r_map = tuple(f.mapping for f in r_files)
    r_free = tuple(f.free for f in r_files)
    r_regs = tuple(f.registers for f in r_files)
    r_stalls = [f.allocation_stalls for f in r_files]
    r_stall_cycles = [f.allocation_stall_cycles for f in r_files]
    # refcount of live mappings per physical register: ``count > 0`` is
    # exactly ``phys in mapping.values()`` (idents are unique per file), so
    # the release check avoids scanning the mapping per retire
    r_live_lists: list[list[int]] = []
    for regs_, m_ in zip(r_regs, r_map):
        counts = [0] * len(regs_)
        for ph_ in m_.values():
            counts[ph_.ident] += 1
        r_live_lists.append(counts)
    r_live = tuple(r_live_lists)

    # -- reorder buffer ------------------------------------------------------
    rob = machine.rob
    # commit times are pushed in non-decreasing order (each commit is at
    # least ``last_commit``), so the occupancy heap pops exactly in FIFO
    # order: hold it as a sorted deque here and hand back the sorted list,
    # which is a valid heap
    rob_occ = deque(sorted(rob._occupancy))
    rob_pop = rob_occ.popleft
    rob_push = rob_occ.append
    rob_entries = rob.entries
    rob_recent = rob._recent_commits
    rob_width = rob.commit_width
    rob_last_commit = rob.last_commit
    rob_stalls = rob.allocation_stalls
    rob_stall_cycles = rob.allocation_stall_cycles
    rob_committed = rob.committed

    # -- issue queues, indexed by the lowered queue code (A, S, V, M) --------
    qs = machine.queues.queues
    q_objs = (
        qs[QueueKind.A],
        qs[QueueKind.S],
        qs[QueueKind.V],
        qs[QueueKind.M],
    )
    q_deps = tuple(q._departures for q in q_objs)
    q_slots_n = tuple(q.slots for q in q_objs)
    q_adm = [q.admissions for q in q_objs]
    q_fstalls = [q.full_stalls for q in q_objs]
    q_fcycles = [q.full_stall_cycles for q in q_objs]

    # -- memory pipeline (disambiguation window inlined, flushed at the end) --
    mempipe = machine.mempipe
    pipe_obj = mempipe.pipe
    pipe_depth = pipe_obj.depth
    pipe_last_exit = pipe_obj.last_exit
    mp_pending = mempipe._pending
    mp_active = mempipe._active
    # the store rows of the window, in program order: a load can only wait
    # on an older store, so loads scan just these (same rows that matter,
    # same order, hence the same ``dependence_stalls``)
    mp_stores = [p_ for p_ in mp_active if p_.is_store]
    mp_stalls = mempipe.dependence_stalls

    # -- functional units, scalar units and the address bus ------------------
    fu1 = machine.fu1
    fu2 = machine.fu2
    f1s, f1e = fu1._starts, fu1._ends
    f2s, f2e = fu2._starts, fu2._ends
    tr1 = fu1.tracker._intervals
    tr2 = fu2.tracker._intervals
    a_unit = machine.a_unit
    s_unit = machine.s_unit
    a_slots = a_unit._slots
    s_slots = s_unit._slots
    a_width = a_unit.width
    s_width = s_unit.width
    a_ops = a_unit.operations
    s_ops = s_unit.operations
    memory = machine.memory
    bus = memory.address_bus
    bs, be = bus._starts, bus._ends
    trb = bus.tracker._intervals
    mem_vl_req = memory.vector_load_requests
    mem_vs_req = memory.vector_store_requests
    mem_sc_req = memory.scalar_requests

    predict = machine.predictor.predict_and_update

    # -- statistics ----------------------------------------------------------
    st = machine.stats
    tf = st.traffic
    n_scalar = st.scalar_instructions
    n_vector = st.vector_instructions
    n_vops = st.vector_operations
    n_branch = st.branch_instructions
    n_bpred = st.branches_predicted
    n_bmiss = st.branch_mispredictions
    n_store_head = st.stores_executed_at_head
    tf_vload = tf.vector_load_ops
    tf_vload_sp = tf.vector_load_spill_ops
    tf_vstore = tf.vector_store_ops
    tf_vstore_sp = tf.vector_store_spill_ops
    tf_sload = tf.scalar_load_ops
    tf_sload_sp = tf.scalar_load_spill_ops
    tf_sstore = tf.scalar_store_ops
    tf_sstore_sp = tf.scalar_store_spill_ops
    tf_evl = tf.eliminated_vector_load_ops
    tf_esl = tf.eliminated_scalar_load_ops
    tr_mem = st.unit_busy["MEM"]._intervals

    # deferred busy-tracker tails: the scalar fast path only ever merges into
    # the *last* interval, so keep that row in locals and materialise it when
    # a disjoint interval begins (and once at flush) instead of rebuilding an
    # Interval per reservation.  ``-1`` marks "no open interval" (ends are
    # always >= 1).
    if tr1:
        tr1_s, tr1_e = tr1.pop()
    else:
        tr1_s = tr1_e = -1
    if tr2:
        tr2_s, tr2_e = tr2.pop()
    else:
        tr2_s = tr2_e = -1
    if trb:
        trb_s, trb_e = trb.pop()
    else:
        trb_s = trb_e = -1
    if tr_mem:
        tr_mem_s, tr_mem_e = tr_mem.pop()
    else:
        tr_mem_s = tr_mem_e = -1

    # -- machine scalars -----------------------------------------------------
    last_rename = machine.last_rename
    fetch_resume = machine.fetch_resume
    horizon = machine.horizon
    gate_ready = machine.issue_ready if inorder else 0

    # -- lowered columns -----------------------------------------------------
    col_lat = lowered.lat_code
    col_vl = lowered.vl
    vl1 = lowered.vl1
    col_dest_cls = lowered.dest_cls
    col_dest_idx = lowered.dest_idx
    col_src_idx = lowered.src_idx
    col_src_cls = lowered.src_cls
    col_queue = lowered.queue_code
    col_spill = lowered.is_spill
    col_fu2 = lowered.fu2_only
    col_rstart = lowered.region_start
    col_rend = lowered.region_end
    col_seq = lowered.seq
    dyns = lowered.dyns
    scratch: List[Any] = [None] * (lowered.max_srcs or 1)

    for seg_start, seg_stop, kc in lowered.segments:
        if kc == K_VECTOR_ALU:
            deps = q_deps[2]
            slots_q = q_slots_n[2]
            adm = q_adm[2]
            fst = q_fstalls[2]
            fcy = q_fcycles[2]
            for i in range(seg_start, seg_stop):
                # decode: ROB allocation + queue admission, in program order
                fetch = last_rename + 1
                if fetch_resume > fetch:
                    fetch = fetch_resume
                granted = fetch
                stalled = False
                while len(rob_occ) >= rob_entries:
                    oldest = rob_pop()
                    if oldest > granted:
                        stalled = True
                        rob_stall_cycles += oldest - granted
                        granted = oldest
                if stalled:
                    rob_stalls += 1
                stalled = False
                while len(deps) >= slots_q:
                    nd = heappop(deps)
                    if nd > granted:
                        stalled = True
                        fcy += nd - granted
                        granted = nd
                if stalled:
                    fst += 1
                adm += 1
                rt = granted

                n_vector += 1
                n_vops += col_vl[i]
                scls = col_src_cls[i]
                sidx = col_src_idx[i]
                ns = len(scls)
                for k in range(ns):
                    c = scls[k]
                    idx = sidx[k]
                    ph = r_map[c].get(idx)
                    if ph is None:
                        fr = r_free[c]
                        if not fr:
                            raise SimulationError(
                                f"no physical {CLS_NAMES[c]} register "
                                "available for initial mapping"
                            )
                        ident = next(iter(fr))
                        del fr[ident]
                        ph = r_regs[c][ident]
                        r_map[c][idx] = ph
                        live = r_live[c]
                        live[ident] += 1
                    scratch[k] = ph

                # under VLE every vector-register instruction traverses the
                # memory pipeline (single-point vector rename, Section 6.2)
                if vle:
                    earliest = rt + 1 + pipe_depth
                    le1 = pipe_last_exit + 1
                    if le1 > earliest:
                        earliest = le1
                    pipe_last_exit = earliest
                else:
                    earliest = rt + 1

                rename_done = rt
                rel_prev = None
                rel_cls = 0
                dest_ph = None
                dest_vec = False
                dc = col_dest_cls[i]
                if dc >= 0:
                    didx = col_dest_idx[i]
                    dest_vec = dc >= 2
                    renamed_late = vle and dest_vec
                    rename_at = earliest if renamed_late else rt
                    m = r_map[dc]
                    prev = m.get(didx)
                    fr = r_free[dc]
                    if not fr:
                        raise SimulationError(
                            f"free list for {CLS_NAMES[dc]} registers is empty "
                            "and nothing is pending release — increase the "
                            "physical register count"
                        )
                    ident = next(iter(fr))
                    avail = fr[ident]
                    if avail > rename_at:
                        r_stalls[dc] += 1
                        r_stall_cycles[dc] += avail - rename_at
                    del fr[ident]
                    ph_d = r_regs[dc][ident]
                    m[didx] = ph_d
                    live = r_live[dc]
                    live[ident] += 1
                    if prev is not None:
                        live[prev.ident] -= 1
                    avail_at = avail if avail > rename_at else rename_at
                    if not renamed_late and avail_at > rename_done:
                        rename_done = avail_at
                    if avail_at > earliest:
                        earliest = avail_at
                    dest_ph = ph_d
                    rel_cls = dc
                    rel_prev = prev
                    tt = tag_tables[dc]
                    if tt is not None:
                        tags = tt._tags
                        pid = ph_d.ident
                        if pid in tags:
                            del tags[pid]
                            tt.invalidations += 1

                for k in range(ns):
                    ph = scratch[k]
                    if scls[k] >= 2:
                        if ph.from_load:
                            v = ph.ready
                        elif chain_fu_to_fu:
                            v = ph.first_result
                        else:
                            v = ph.ready
                    else:
                        v = ph.ready
                    if v > earliest:
                        earliest = v
                if inorder and gate_ready > earliest:
                    earliest = gate_ready

                vl_ = vl1[i]
                duration = vl_ + vector_startup
                if col_fu2[i]:
                    if f2e and earliest < f2e[-1]:
                        s = gap_find(f2s, f2e, earliest, duration)
                    else:
                        s = earliest
                    use2 = True
                else:
                    if f1e and earliest < f1e[-1]:
                        s1 = gap_find(f1s, f1e, earliest, duration)
                    else:
                        s1 = earliest
                    if f2e and earliest < f2e[-1]:
                        s2 = gap_find(f2s, f2e, earliest, duration)
                    else:
                        s2 = earliest
                    if s1 <= s2:
                        s = s1
                        use2 = False
                    else:
                        s = s2
                        use2 = True
                e = s + duration
                if use2:
                    if f2e and s < f2e[-1]:
                        gap_insert(f2s, f2e, s, e)
                    elif f2e and f2e[-1] == s:
                        f2e[-1] = e
                    else:
                        f2s.append(s)
                        f2e.append(e)
                    if tr2_e >= s >= tr2_s:
                        if e > tr2_e:
                            tr2_e = e
                    else:
                        if tr2_e >= 0:
                            tr2.append(iv_new(Interval, (tr2_s, tr2_e)))
                        tr2_s = s
                        tr2_e = e
                else:
                    if f1e and s < f1e[-1]:
                        gap_insert(f1s, f1e, s, e)
                    elif f1e and f1e[-1] == s:
                        f1e[-1] = e
                    else:
                        f1s.append(s)
                        f1e.append(e)
                    if tr1_e >= s >= tr1_s:
                        if e > tr1_e:
                            tr1_e = e
                    else:
                        if tr1_e >= 0:
                            tr1.append(iv_new(Interval, (tr1_s, tr1_e)))
                        tr1_s = s
                        tr1_e = e

                first_result = s + vector_lat[col_lat[i]]
                completion = first_result + vl_
                if dest_ph is not None:
                    dest_ph.from_load = False
                    if dest_vec:
                        dest_ph.first_result = first_result
                        dest_ph.ready = completion
                    else:
                        dest_ph.first_result = completion
                        dest_ph.ready = completion
                r_start = s
                departure = s

                # retire: queue departure, in-order commit, free-list release
                heappush(deps, departure)
                rtc = r_start if early_commit else completion
                if rename_done > rtc:
                    rtc = rename_done
                commit = rtc if rtc > rob_last_commit else rob_last_commit
                if len(rob_recent) == rob_width:
                    bw = rob_recent[0] + 1
                    if bw > commit:
                        commit = bw
                rob_recent.append(commit)
                rob_last_commit = commit
                rob_committed += 1
                rob_push(commit)
                if rel_prev is not None:
                    ident = rel_prev.ident
                    if r_live[rel_cls][ident] <= 0:
                        fr = r_free[rel_cls]
                        old = fr.get(ident, 0)
                        fr[ident] = commit if commit > old else old
                last_rename = rt if rt > rename_done else rename_done
                if completion > horizon:
                    horizon = completion
                if commit > horizon:
                    horizon = commit
                if departure > horizon:
                    horizon = departure
                if inorder:
                    nxt = r_start + 1
                    if nxt > gate_ready:
                        gate_ready = nxt
            q_adm[2] = adm
            q_fstalls[2] = fst
            q_fcycles[2] = fcy

        elif (
            kc == K_VECTOR_LOAD
            or kc == K_VECTOR_STORE
            or kc == K_SCALAR_LOAD
            or kc == K_SCALAR_STORE
        ):
            is_vec = kc == K_VECTOR_LOAD or kc == K_VECTOR_STORE
            is_store = kc == K_VECTOR_STORE or kc == K_SCALAR_STORE
            deps = q_deps[3]
            slots_q = q_slots_n[3]
            adm = q_adm[3]
            fst = q_fstalls[3]
            fcy = q_fcycles[3]
            for i in range(seg_start, seg_stop):
                fetch = last_rename + 1
                if fetch_resume > fetch:
                    fetch = fetch_resume
                granted = fetch
                stalled = False
                while len(rob_occ) >= rob_entries:
                    oldest = rob_pop()
                    if oldest > granted:
                        stalled = True
                        rob_stall_cycles += oldest - granted
                        granted = oldest
                if stalled:
                    rob_stalls += 1
                stalled = False
                while len(deps) >= slots_q:
                    nd = heappop(deps)
                    if nd > granted:
                        stalled = True
                        fcy += nd - granted
                        granted = nd
                if stalled:
                    fst += 1
                adm += 1
                rt = granted

                if is_vec:
                    n_vector += 1
                    n_vops += col_vl[i]
                else:
                    n_scalar += 1
                scls = col_src_cls[i]
                sidx = col_src_idx[i]
                ns = len(scls)
                for k in range(ns):
                    c = scls[k]
                    idx = sidx[k]
                    ph = r_map[c].get(idx)
                    if ph is None:
                        fr = r_free[c]
                        if not fr:
                            raise SimulationError(
                                f"no physical {CLS_NAMES[c]} register "
                                "available for initial mapping"
                            )
                        ident = next(iter(fr))
                        del fr[ident]
                        ph = r_regs[c][ident]
                        r_map[c][idx] = ph
                        live = r_live[c]
                        live[ident] += 1
                    scratch[k] = ph

                a_ready = rt + 1
                i_ready = rt + 1
                for k in range(1 if is_store else 0, ns):
                    ph = scratch[k]
                    if scls[k] >= 2:
                        if ph.ready > i_ready:
                            i_ready = ph.ready
                    else:
                        if ph.ready > a_ready:
                            a_ready = ph.ready
                pe = a_ready + pipe_depth
                le1 = pipe_last_exit + 1
                if le1 > pe:
                    pe = le1
                pipe_last_exit = pe
                # run-time disambiguation against the pending-access window
                dep_ready = pe
                rs = col_rstart[i]
                if rs >= 0:
                    re_ = col_rend[i]
                    # a store waits on every older access, a load only on
                    # older stores
                    window = mp_active if is_store else mp_stores
                    if window:
                        # scan only rows that could still matter; ``pe`` is
                        # monotone across memory instructions, so anything
                        # done by now is dead for every later scan too
                        live_: list[_PendingAccess] = []
                        keep_ = live_.append
                        for p_ in window:
                            ad = p_.address_done
                            if ad <= pe:
                                continue
                            keep_(p_)
                            if ad <= dep_ready:
                                continue
                            if p_.region_start < re_ and rs < p_.region_end:
                                dep_ready = ad
                                mp_stalls += 1
                        if is_store:
                            mp_active = live_
                        else:
                            mp_stores = live_

                if is_store:
                    v_ph = scratch[0]
                    if scls[0] >= 2:
                        if v_ph.from_load:
                            v_ready = v_ph.ready
                        elif chain_fu_to_store:
                            v_ready = v_ph.first_result
                        else:
                            v_ready = v_ph.ready
                    else:
                        v_ready = v_ph.ready
                    earliest = dep_ready
                    if i_ready > earliest:
                        earliest = i_ready
                    if v_ready > earliest:
                        earliest = v_ready
                    if late_commit:
                        # stores update memory only from the ROB head (§5)
                        if rob_last_commit > earliest:
                            earliest = rob_last_commit
                        n_store_head += 1
                    if inorder and gate_ready > earliest:
                        earliest = gate_ready
                    if is_vec:
                        vl_ = vl1[i]
                        if be and earliest < be[-1]:
                            s = gap_find(bs, be, earliest, vl_)
                        else:
                            s = earliest
                        e_addr = s + vl_
                        if be and s < be[-1]:
                            gap_insert(bs, be, s, e_addr)
                        elif be and be[-1] == s:
                            be[-1] = e_addr
                        else:
                            bs.append(s)
                            be.append(e_addr)
                        if trb_e >= s >= trb_s:
                            if e_addr > trb_e:
                                trb_e = e_addr
                        else:
                            if trb_e >= 0:
                                trb.append(iv_new(Interval, (trb_s, trb_e)))
                            trb_s = s
                            trb_e = e_addr
                        mem_vs_req += vl_
                        if tr_mem_e >= s >= tr_mem_s:
                            if e_addr > tr_mem_e:
                                tr_mem_e = e_addr
                        else:
                            if tr_mem_e >= 0:
                                tr_mem.append(iv_new(Interval, (tr_mem_s, tr_mem_e)))
                            tr_mem_s = s
                            tr_mem_e = e_addr
                        tf_vstore += vl_
                        if col_spill[i]:
                            tf_vstore_sp += vl_
                    else:
                        if be and earliest < be[-1]:
                            s = gap_find(bs, be, earliest, 1)
                        else:
                            s = earliest
                        e_addr = s + 1
                        if be and s < be[-1]:
                            gap_insert(bs, be, s, e_addr)
                        elif be and be[-1] == s:
                            be[-1] = e_addr
                        else:
                            bs.append(s)
                            be.append(e_addr)
                        if trb_e >= s >= trb_s:
                            if e_addr > trb_e:
                                trb_e = e_addr
                        else:
                            if trb_e >= 0:
                                trb.append(iv_new(Interval, (trb_s, trb_e)))
                            trb_s = s
                            trb_e = e_addr
                        mem_sc_req += 1
                        tf_sstore += 1
                        if col_spill[i]:
                            tf_sstore_sp += 1
                    if rs >= 0:
                        entry_ = iv_new(
                            _PendingAccess, (col_seq[i], rs, re_, is_store, e_addr)
                        )
                        mp_pending.append(entry_)
                        mp_active.append(entry_)
                        mp_stores.append(entry_)
                        if len(mp_pending) >= 256:
                            # stores never prune ``mp_stores``: bound both
                            # windows by the pending list's prune
                            mp_pending = [
                                p_
                                for p_ in mp_pending
                                if p_.address_done > pipe_last_exit
                            ]
                            mempipe._pending = mp_pending
                            mp_active = [
                                p_
                                for p_ in mp_active
                                if p_.address_done > pipe_last_exit
                            ]
                            mp_stores = [
                                p_
                                for p_ in mp_stores
                                if p_.address_done > pipe_last_exit
                            ]
                    ttv = tag_tables[scls[0]]
                    if ttv is not None:
                        tag = col_tag[i]
                        if tag is not None:
                            # store consistency: kill every overlapping tag
                            # in all three tables, then tag the stored value
                            t_rs = tag.region_start
                            t_re = tag.region_end
                            v_pid = v_ph.ident
                            for cand in le_tables:
                                tags_d = cand._tags
                                if not tags_d:
                                    continue
                                keep = v_pid if cand is ttv else None
                                victims = [
                                    pid_
                                    for pid_, tg_ in tags_d.items()
                                    if pid_ != keep
                                    and tg_.region_start < t_re
                                    and t_rs < tg_.region_end
                                ]
                                for pid_ in victims:
                                    del tags_d[pid_]
                                cand.invalidations += len(victims)
                            ttv._tags[v_pid] = tag
                    r_start = s
                    completion = e_addr
                    departure = s
                    rename_done = rt
                    rel_prev = None
                    rel_cls = 0
                else:
                    rename_done = rt
                    dc = col_dest_cls[i]
                    if dc < 0:
                        raise AttributeError(
                            "'NoneType' object has no attribute 'cls'"
                        )
                    didx = col_dest_idx[i]
                    vl_ = vl1[i] if is_vec else 1
                    table = tag_tables[dc]
                    matched_id: Optional[int] = None
                    if table is not None and (vle if is_vec else sle):
                        tag = col_tag[i]
                        if tag is not None:
                            # find_exact: first value-equal tag wins
                            for pid_, tg_ in table._tags.items():
                                if tg_ == tag:
                                    table.matches += 1
                                    matched_id = pid_
                                    break
                    if matched_id is not None and is_vec:
                        # VLE: rename the destination straight to the match
                        matched = r_regs[2][matched_id]
                        m = r_map[2]
                        prev = m.get(didx)
                        r_free[2].pop(matched.ident, None)
                        m[didx] = matched
                        live = r_live[2]
                        mident = matched.ident
                        live[mident] += 1
                        if prev is not None:
                            live[prev.ident] -= 1
                        rel_cls = 2
                        rel_prev = prev
                        completion = pe + 1
                        if matched.ready > completion:
                            completion = matched.ready
                        loadelim.vector_loads_eliminated += 1
                        tf_evl += vl_
                        r_start = pe
                        departure = pe + 1
                    else:
                        renamed_late = vle and is_vec
                        rename_at = dep_ready if renamed_late else rt
                        m = r_map[dc]
                        prev = m.get(didx)
                        fr = r_free[dc]
                        if not fr:
                            raise SimulationError(
                                f"free list for {CLS_NAMES[dc]} registers is "
                                "empty and nothing is pending release — "
                                "increase the physical register count"
                            )
                        ident = next(iter(fr))
                        avail = fr[ident]
                        if avail > rename_at:
                            r_stalls[dc] += 1
                            r_stall_cycles[dc] += avail - rename_at
                        del fr[ident]
                        ph_d = r_regs[dc][ident]
                        m[didx] = ph_d
                        live = r_live[dc]
                        live[ident] += 1
                        if prev is not None:
                            live[prev.ident] -= 1
                        avail_at = avail if avail > rename_at else rename_at
                        if not renamed_late and avail_at > rename_done:
                            rename_done = avail_at
                        rel_cls = dc
                        rel_prev = prev
                        if matched_id is not None:
                            # SLE: register-to-register copy, no memory access
                            matched = r_regs[dc][matched_id]
                            completion = pe + 1
                            if matched.ready > completion:
                                completion = matched.ready
                            ph_d.ready = completion
                            ph_d.first_result = completion
                            ph_d.from_load = False
                            table.set_tag(ph_d.ident, table.get(matched_id))
                            loadelim.scalar_loads_eliminated += 1
                            tf_esl += 1
                            r_start = pe
                            departure = pe + 1
                        else:
                            earliest = dep_ready
                            if i_ready > earliest:
                                earliest = i_ready
                            if avail_at > earliest:
                                earliest = avail_at
                            if inorder and gate_ready > earliest:
                                earliest = gate_ready
                            if is_vec:
                                if be and earliest < be[-1]:
                                    s = gap_find(bs, be, earliest, vl_)
                                else:
                                    s = earliest
                                e_addr = s + vl_
                                if be and s < be[-1]:
                                    gap_insert(bs, be, s, e_addr)
                                elif be and be[-1] == s:
                                    be[-1] = e_addr
                                else:
                                    bs.append(s)
                                    be.append(e_addr)
                                if trb_e >= s >= trb_s:
                                    if e_addr > trb_e:
                                        trb_e = e_addr
                                else:
                                    if trb_e >= 0:
                                        trb.append(iv_new(Interval, (trb_s, trb_e)))
                                    trb_s = s
                                    trb_e = e_addr
                                data_ready = s + mem_latency + vl_
                                mem_vl_req += vl_
                                ph_d.first_result = s + mem_latency
                                ph_d.ready = data_ready
                                ph_d.from_load = True
                                if tr_mem_e >= s >= tr_mem_s:
                                    if e_addr > tr_mem_e:
                                        tr_mem_e = e_addr
                                else:
                                    if tr_mem_e >= 0:
                                        tr_mem.append(iv_new(Interval, (tr_mem_s, tr_mem_e)))
                                    tr_mem_s = s
                                    tr_mem_e = e_addr
                                tf_vload += vl_
                                if col_spill[i]:
                                    tf_vload_sp += vl_
                            else:
                                if be and earliest < be[-1]:
                                    s = gap_find(bs, be, earliest, 1)
                                else:
                                    s = earliest
                                e_addr = s + 1
                                if be and s < be[-1]:
                                    gap_insert(bs, be, s, e_addr)
                                elif be and be[-1] == s:
                                    be[-1] = e_addr
                                else:
                                    bs.append(s)
                                    be.append(e_addr)
                                if trb_e >= s >= trb_s:
                                    if e_addr > trb_e:
                                        trb_e = e_addr
                                else:
                                    if trb_e >= 0:
                                        trb.append(iv_new(Interval, (trb_s, trb_e)))
                                    trb_s = s
                                    trb_e = e_addr
                                data_ready = s + scalar_mem_lat
                                mem_sc_req += 1
                                ph_d.first_result = data_ready
                                ph_d.ready = data_ready
                                ph_d.from_load = True
                                tf_sload += 1
                                if col_spill[i]:
                                    tf_sload_sp += 1
                            if rs >= 0:
                                entry_ = iv_new(
                                    _PendingAccess,
                                    (col_seq[i], rs, re_, is_store, e_addr),
                                )
                                mp_pending.append(entry_)
                                mp_active.append(entry_)
                                if len(mp_pending) >= 256:
                                    # loads never prune ``mp_active``: bound
                                    # both windows by the pending list's prune
                                    mp_pending = [
                                        p_
                                        for p_ in mp_pending
                                        if p_.address_done > pipe_last_exit
                                    ]
                                    mempipe._pending = mp_pending
                                    mp_active = [
                                        p_
                                        for p_ in mp_active
                                        if p_.address_done > pipe_last_exit
                                    ]
                                    mp_stores = [
                                        p_
                                        for p_ in mp_stores
                                        if p_.address_done > pipe_last_exit
                                    ]
                            if table is not None:
                                tag = col_tag[i]
                                if tag is None:
                                    table._tags.pop(ph_d.ident, None)
                                else:
                                    table._tags[ph_d.ident] = tag
                            r_start = s
                            completion = data_ready
                            departure = s

                heappush(deps, departure)
                rtc = r_start if early_commit else completion
                if rename_done > rtc:
                    rtc = rename_done
                commit = rtc if rtc > rob_last_commit else rob_last_commit
                if len(rob_recent) == rob_width:
                    bw = rob_recent[0] + 1
                    if bw > commit:
                        commit = bw
                rob_recent.append(commit)
                rob_last_commit = commit
                rob_committed += 1
                rob_push(commit)
                if rel_prev is not None:
                    ident = rel_prev.ident
                    if r_live[rel_cls][ident] <= 0:
                        fr = r_free[rel_cls]
                        old = fr.get(ident, 0)
                        fr[ident] = commit if commit > old else old
                last_rename = rt if rt > rename_done else rename_done
                if completion > horizon:
                    horizon = completion
                if commit > horizon:
                    horizon = commit
                if departure > horizon:
                    horizon = departure
                if inorder:
                    nxt = r_start + 1
                    if nxt > gate_ready:
                        gate_ready = nxt
            q_adm[3] = adm
            q_fstalls[3] = fst
            q_fcycles[3] = fcy

        elif kc == K_BRANCH:
            deps = q_deps[0]
            slots_q = q_slots_n[0]
            adm = q_adm[0]
            fst = q_fstalls[0]
            fcy = q_fcycles[0]
            for i in range(seg_start, seg_stop):
                fetch = last_rename + 1
                if fetch_resume > fetch:
                    fetch = fetch_resume
                granted = fetch
                stalled = False
                while len(rob_occ) >= rob_entries:
                    oldest = rob_pop()
                    if oldest > granted:
                        stalled = True
                        rob_stall_cycles += oldest - granted
                        granted = oldest
                if stalled:
                    rob_stalls += 1
                stalled = False
                while len(deps) >= slots_q:
                    nd = heappop(deps)
                    if nd > granted:
                        stalled = True
                        fcy += nd - granted
                        granted = nd
                if stalled:
                    fst += 1
                adm += 1
                rt = granted

                n_branch += 1
                scls = col_src_cls[i]
                sidx = col_src_idx[i]
                ready = rt + 1
                for k in range(len(scls)):
                    c = scls[k]
                    idx = sidx[k]
                    ph = r_map[c].get(idx)
                    if ph is None:
                        fr = r_free[c]
                        if not fr:
                            raise SimulationError(
                                f"no physical {CLS_NAMES[c]} register "
                                "available for initial mapping"
                            )
                        ident = next(iter(fr))
                        del fr[ident]
                        ph = r_regs[c][ident]
                        r_map[c][idx] = ph
                        live = r_live[c]
                        live[ident] += 1
                    if ph.ready > ready:
                        ready = ph.ready
                if inorder and gate_ready > ready:
                    ready = gate_ready
                cyc = ready
                while a_slots.get(cyc, 0) >= a_width:
                    cyc += 1
                a_slots[cyc] = a_slots.get(cyc, 0) + 1
                a_ops += 1
                issue = cyc
                resolve = issue + lat_scalar_alu

                correct = predict(dyns[i])
                n_bpred += 1
                if not correct:
                    n_bmiss += 1
                    resume = resolve + mispredict_penalty
                    if resume > fetch_resume:
                        fetch_resume = resume

                r_start = issue
                completion = resolve
                departure = issue

                heappush(deps, departure)
                rtc = r_start if early_commit else completion
                if rt > rtc:
                    rtc = rt
                commit = rtc if rtc > rob_last_commit else rob_last_commit
                if len(rob_recent) == rob_width:
                    bw = rob_recent[0] + 1
                    if bw > commit:
                        commit = bw
                rob_recent.append(commit)
                rob_last_commit = commit
                rob_committed += 1
                rob_push(commit)
                last_rename = rt
                if completion > horizon:
                    horizon = completion
                if commit > horizon:
                    horizon = commit
                if departure > horizon:
                    horizon = departure
                if inorder:
                    nxt = r_start + 1
                    if nxt > gate_ready:
                        gate_ready = nxt
            q_adm[0] = adm
            q_fstalls[0] = fst
            q_fcycles[0] = fcy

        else:  # scalar ALU and vector control (the default handler)
            for i in range(seg_start, seg_stop):
                fetch = last_rename + 1
                if fetch_resume > fetch:
                    fetch = fetch_resume
                granted = fetch
                stalled = False
                while len(rob_occ) >= rob_entries:
                    oldest = rob_pop()
                    if oldest > granted:
                        stalled = True
                        rob_stall_cycles += oldest - granted
                        granted = oldest
                if stalled:
                    rob_stalls += 1
                qc = col_queue[i]
                deps = q_deps[qc]
                stalled = False
                while len(deps) >= q_slots_n[qc]:
                    nd = heappop(deps)
                    if nd > granted:
                        stalled = True
                        q_fcycles[qc] += nd - granted
                        granted = nd
                if stalled:
                    q_fstalls[qc] += 1
                q_adm[qc] += 1
                rt = granted

                n_scalar += 1
                scls = col_src_cls[i]
                sidx = col_src_idx[i]
                ns = len(scls)
                for k in range(ns):
                    c = scls[k]
                    idx = sidx[k]
                    ph = r_map[c].get(idx)
                    if ph is None:
                        fr = r_free[c]
                        if not fr:
                            raise SimulationError(
                                f"no physical {CLS_NAMES[c]} register "
                                "available for initial mapping"
                            )
                        ident = next(iter(fr))
                        del fr[ident]
                        ph = r_regs[c][ident]
                        r_map[c][idx] = ph
                        live = r_live[c]
                        live[ident] += 1
                    scratch[k] = ph

                rename_done = rt
                rel_prev = None
                rel_cls = 0
                dest_ph = None
                dc = col_dest_cls[i]
                if dc >= 0:
                    didx = col_dest_idx[i]
                    m = r_map[dc]
                    prev = m.get(didx)
                    fr = r_free[dc]
                    if not fr:
                        raise SimulationError(
                            f"free list for {CLS_NAMES[dc]} registers is empty "
                            "and nothing is pending release — increase the "
                            "physical register count"
                        )
                    ident = next(iter(fr))
                    avail = fr[ident]
                    if avail > rt:
                        r_stalls[dc] += 1
                        r_stall_cycles[dc] += avail - rt
                    del fr[ident]
                    ph_d = r_regs[dc][ident]
                    m[didx] = ph_d
                    live = r_live[dc]
                    live[ident] += 1
                    if prev is not None:
                        live[prev.ident] -= 1
                    if avail > rename_done:
                        rename_done = avail
                    dest_ph = ph_d
                    rel_cls = dc
                    rel_prev = prev
                    tt = tag_tables[dc]
                    if tt is not None:
                        tags = tt._tags
                        pid = ph_d.ident
                        if pid in tags:
                            del tags[pid]
                            tt.invalidations += 1

                ready = rename_done + 1
                for k in range(ns):
                    pr = scratch[k].ready
                    if pr > ready:
                        ready = pr
                if inorder and gate_ready > ready:
                    ready = gate_ready
                cyc = ready
                if qc == 0:
                    while a_slots.get(cyc, 0) >= a_width:
                        cyc += 1
                    a_slots[cyc] = a_slots.get(cyc, 0) + 1
                    a_ops += 1
                else:
                    while s_slots.get(cyc, 0) >= s_width:
                        cyc += 1
                    s_slots[cyc] = s_slots.get(cyc, 0) + 1
                    s_ops += 1
                issue = cyc
                completion = issue + scalar_lat[col_lat[i]]
                if dest_ph is not None:
                    dest_ph.ready = completion
                    dest_ph.first_result = completion
                    dest_ph.from_load = False
                r_start = issue
                departure = issue

                heappush(deps, departure)
                rtc = r_start if early_commit else completion
                if rename_done > rtc:
                    rtc = rename_done
                commit = rtc if rtc > rob_last_commit else rob_last_commit
                if len(rob_recent) == rob_width:
                    bw = rob_recent[0] + 1
                    if bw > commit:
                        commit = bw
                rob_recent.append(commit)
                rob_last_commit = commit
                rob_committed += 1
                rob_push(commit)
                if rel_prev is not None:
                    ident = rel_prev.ident
                    if r_live[rel_cls][ident] <= 0:
                        fr = r_free[rel_cls]
                        old = fr.get(ident, 0)
                        fr[ident] = commit if commit > old else old
                last_rename = rt if rt > rename_done else rename_done
                if completion > horizon:
                    horizon = completion
                if commit > horizon:
                    horizon = commit
                if departure > horizon:
                    horizon = departure
                if inorder:
                    nxt = r_start + 1
                    if nxt > gate_ready:
                        gate_ready = nxt

    # -- flush the localized state back into the components ------------------
    if tr1_e >= 0:
        tr1.append(iv_new(Interval, (tr1_s, tr1_e)))
    if tr2_e >= 0:
        tr2.append(iv_new(Interval, (tr2_s, tr2_e)))
    if trb_e >= 0:
        trb.append(iv_new(Interval, (trb_s, trb_e)))
    if tr_mem_e >= 0:
        tr_mem.append(iv_new(Interval, (tr_mem_s, tr_mem_e)))
    machine.last_rename = last_rename
    machine.fetch_resume = fetch_resume
    machine.horizon = horizon
    if inorder:
        machine.issue_ready = gate_ready
    rob._occupancy = list(rob_occ)
    rob.last_commit = rob_last_commit
    rob.allocation_stalls = rob_stalls
    rob.allocation_stall_cycles = rob_stall_cycles
    rob.committed = rob_committed
    for idx, q in enumerate(q_objs):
        q.admissions = q_adm[idx]
        q.full_stalls = q_fstalls[idx]
        q.full_stall_cycles = q_fcycles[idx]
    for idx, f in enumerate(r_files):
        f.allocation_stalls = r_stalls[idx]
        f.allocation_stall_cycles = r_stall_cycles[idx]
    pipe_obj.last_exit = pipe_last_exit
    mempipe._pending = mp_pending
    mempipe._active = mp_active
    mempipe.dependence_stalls = mp_stalls
    a_unit.operations = a_ops
    s_unit.operations = s_ops
    memory.vector_load_requests = mem_vl_req
    memory.vector_store_requests = mem_vs_req
    memory.scalar_requests = mem_sc_req
    st.scalar_instructions = n_scalar
    st.vector_instructions = n_vector
    st.vector_operations = n_vops
    st.branch_instructions = n_branch
    st.branches_predicted = n_bpred
    st.branch_mispredictions = n_bmiss
    st.stores_executed_at_head = n_store_head
    tf.vector_load_ops = tf_vload
    tf.vector_load_spill_ops = tf_vload_sp
    tf.vector_store_ops = tf_vstore
    tf.vector_store_spill_ops = tf_vstore_sp
    tf.scalar_load_ops = tf_sload
    tf.scalar_load_spill_ops = tf_sload_sp
    tf.scalar_store_ops = tf_sstore
    tf.scalar_store_spill_ops = tf_sstore_sp
    tf.eliminated_vector_load_ops = tf_evl
    tf.eliminated_scalar_load_ops = tf_esl


def _step_ooo(machine: Any, lowered: LoweredTrace) -> None:
    _step(machine, lowered, False)


def _step_inorder(machine: Any, lowered: LoweredTrace) -> None:
    _step(machine, lowered, True)


register_stepper(_OOORun, _step_ooo)
register_stepper(_InOrderRun, _step_inorder)
