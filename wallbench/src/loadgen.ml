(* The load generator and result sink, one process, control domain.

   Packets come from the pregenerated trace: each is popped from the
   bed's Pool, stamped with its absolute packet number in [seq], put
   on the Link, received in batches of 32 and handed to the Engine;
   results come back through [Engine.drain].  Every outcome is
   counted — forwarded (egress checked against the reference LPM),
   absorbed, dropped by [Drop_reason], refused by the engine, lost to
   a full link or an empty pool — so the run can prove
   offered = accounted.

   The per-packet path allocates nothing: packets are pooled, the
   clock read is unboxed, the sink closure is built once.  The only
   allocation of the load generator is the boxed [int64] of the simulated
   clock, renewed once per simulated millisecond.

   Two phases:
   - closed loop: keep at most [window] packets in flight and refill a
     batch of 32 as soon as results drain; throughput per window;
   - open loop: packet [i] is due at [sched0 + i / rate]; its latency
     runs from that due time to its drain, so a generator stall is
     charged to the packets behind it; how late each packet was
     actually sent is kept apart as generator lag. *)

open Rp_pkt
module Engine = Rp_engine.Engine
module Shard = Rp_engine.Shard
module Drop_reason = Rp_obs.Drop_reason
module Session = Rp_session.Session

let batch = 32

(* Span names of the traced run. *)
let sp_batch = 0
let sp_fill = 1
let sp_submit = 2
let sp_drain = 3
let sp_pmgr = 4
let sp_expire_flows = 5
let sp_expire_sessions = 6
let sp_drain_empty = 7

let span_names =
  [|
    "loadgen.batch"; "pkt.fill"; "engine.submit"; "engine.drain"; "control.pmgr_exec";
    "classifier.expire"; "session.expire"; "engine.drain_empty";
  |]

let reasons = Array.of_list Drop_reason.all

let reason_index r =
  let rec go i = if reasons.(i) = r then i else go (i + 1) in
  go 0

(* Control-plane mutations issued while traffic runs (control-churn):
   one per closed-loop window, issued when the window opens; the window
   does not close before the update reached every shard. *)
type updates = {
  cmds : string array;
  mutable next : int;
  mutable due : int;
  mutable issued : int;
  mutable exec_done : int;
  mutable pending : bool;
  sync_ns : int array;  (** Pmgr.exec issued -> Engine.synced *)
  exec_ns : int array;  (** Pmgr.exec call *)
  wait_ns : int array;  (** Pmgr.exec returned -> Engine.synced *)
  mutable n : int;
  mutable errors : int;
}

(* Periodic flow and session expiry on the simulated clock (nat-churn). *)
type expiry = {
  every_sim_ns : int;
  idle_ns : int64;
  mutable next_sim : int;
  flows_ns : int array;
  sessions_ns : int array;
  mutable passes : int;
  mutable live_max : int;
}

type t = {
  bed : Bed.t;
  gen : Gen.t;
  inline : bool;
  window : int;
  mask : int;
  expected : int array;  (** destination index -> reference egress iface *)
  sim_ns_per_pkt : int;
  mutable sim_tick : int;
  mutable sim_now : int64;
  batch_buf : Mbuf.t array;
  mutable pos : int;  (** packets generated so far = next trace position *)
  mutable offered : int;
  mutable completed : int;
  mutable forwarded : int;
  mutable absorbed : int;
  drops : int array;  (** by [reasons] index *)
  mutable refused : int;
  mutable link_drops : int;
  mutable pool_exhausted : int;
  mutable egress_mismatch : int;
  mutable in_flight : int;
  mutable lat : int array;  (** open-loop latency by phase index, ns; max_int = lost *)
  mutable lag : int array;  (** open-loop send lateness by phase index, ns *)
  mutable open_base : int;
  mutable sched0 : int;
  mutable rate : int;
  mutable sink : Shard.result -> unit;
  mutable traced_submitted : int;
  mutable traced_results : int;
  updates : updates option;
  expiry : expiry option;
  spans : Spans.t;
}

let handle t (res : Shard.result) =
  let m = res.Shard.m in
  t.in_flight <- t.in_flight - 1;
  t.completed <- t.completed + 1;
  (match res.Shard.outcome with
   | Shard.Forwarded i ->
     t.forwarded <- t.forwarded + 1;
     let flow = Gen.flow_of t.gen.Gen.trace.(m.Mbuf.seq land t.mask) in
     if i <> t.expected.(t.gen.Gen.flow_dst.(flow)) then
       t.egress_mismatch <- t.egress_mismatch + 1
   | Shard.Absorbed -> t.absorbed <- t.absorbed + 1
   | Shard.Dropped why ->
     let k = reason_index (Drop_reason.of_why why) in
     t.drops.(k) <- t.drops.(k) + 1);
  let i = m.Mbuf.seq - t.open_base in
  if i >= 0 && i < Array.length t.lat then
    t.lat.(i) <- Clock.now_ns () - (t.sched0 + (i * 1_000_000_000 / t.rate));
  Pool.free t.bed.Bed.pool m

let create ?updates ?expiry ~expected ~sim_ns_per_pkt (bed : Bed.t) (gen : Gen.t) =
  let inline = Bed.inline bed in
  let t =
    {
      bed;
      gen;
      inline;
      window = (if inline then batch else 8 * batch);
      mask = Array.length gen.Gen.trace - 1;
      expected;
      sim_ns_per_pkt;
      sim_tick = 0;
      sim_now = 0L;
      batch_buf = Array.make batch (Mbuf.synth ~key:gen.Gen.keys.(0) ~len:64 ());
      pos = 0;
      offered = 0;
      completed = 0;
      forwarded = 0;
      absorbed = 0;
      drops = Array.make (Array.length reasons) 0;
      refused = 0;
      link_drops = 0;
      pool_exhausted = 0;
      egress_mismatch = 0;
      in_flight = 0;
      lat = [||];
      lag = [||];
      open_base = max_int;
      sched0 = 0;
      rate = 1;
      sink = ignore;
      traced_submitted = 0;
      traced_results = 0;
      updates;
      expiry;
      spans = Spans.create span_names;
    }
  in
  t.sink <- handle t;
  t

let make_updates ~cmds ~capacity =
  {
    cmds;
    next = 0;
    due = max_int;
    issued = 0;
    exec_done = 0;
    pending = false;
    sync_ns = Array.make capacity 0;
    exec_ns = Array.make capacity 0;
    wait_ns = Array.make capacity 0;
    n = 0;
    errors = 0;
  }

let make_expiry ~every_sim_ns ~idle_ns ~capacity =
  {
    every_sim_ns;
    idle_ns;
    next_sim = every_sim_ns;
    flows_ns = Array.make capacity 0;
    sessions_ns = Array.make capacity 0;
    passes = 0;
    live_max = 0;
  }

(* Generate one packet onto the link. *)
let emit t =
  let p = t.pos in
  t.pos <- p + 1;
  t.offered <- t.offered + 1;
  let e = t.gen.Gen.trace.(p land t.mask) in
  let pool = t.bed.Bed.pool in
  match Pool.alloc pool ~key:t.gen.Gen.keys.(Gen.flow_of e) ~len:(Gen.len_of e) with
  | exception Pool.Empty -> t.pool_exhausted <- t.pool_exhausted + 1
  | m ->
    m.Mbuf.seq <- p;
    if not (Link.transmit t.bed.Bed.link m) then begin
      t.link_drops <- t.link_drops + 1;
      Pool.free pool m
    end

let tick_clock t =
  let tick = t.pos * t.sim_ns_per_pkt / 1_000_000 in
  if tick <> t.sim_tick then begin
    t.sim_tick <- tick;
    t.sim_now <- Int64.of_int (tick * 1_000_000)
  end

(* Move one batch from the link into the engine. *)
let push t =
  Spans.enter t.spans sp_fill;
  let n = Link.receive_batch t.bed.Bed.link ~max:batch t.batch_buf in
  Spans.leave t.spans;
  if n > 0 then begin
    tick_clock t;
    let e = t.bed.Bed.engine in
    if t.spans.Spans.on then t.traced_submitted <- t.traced_submitted + n;
    Spans.enter t.spans sp_submit;
    if t.inline then begin
      ignore (Engine.submit_batch e ~now:t.sim_now t.batch_buf ~n);
      t.in_flight <- t.in_flight + n
    end
    else
      for i = 0 to n - 1 do
        let m = t.batch_buf.(i) in
        if Engine.submit e ~now:t.sim_now m then t.in_flight <- t.in_flight + 1
        else begin
          t.refused <- t.refused + 1;
          Pool.free t.bed.Bed.pool m
        end
      done;
    Spans.leave t.spans
  end

let drain t =
  Spans.enter t.spans sp_drain;
  let n = Engine.drain t.bed.Bed.engine ~f:t.sink in
  Spans.leave_as t.spans (if n = 0 then sp_drain_empty else sp_drain);
  if t.spans.Spans.on then t.traced_results <- t.traced_results + n;
  n

let update_step t u now =
  if u.pending then begin
    if Engine.synced t.bed.Bed.engine then begin
      let synced = Clock.now_ns () in
      if u.n < Array.length u.sync_ns then begin
        u.sync_ns.(u.n) <- synced - u.issued;
        u.exec_ns.(u.n) <- u.exec_done - u.issued;
        u.wait_ns.(u.n) <- synced - u.exec_done;
        u.n <- u.n + 1
      end;
      u.pending <- false;
      u.due <- max_int
    end
  end
  else if now >= u.due then begin
    let cmd = u.cmds.(u.next mod Array.length u.cmds) in
    u.next <- u.next + 1;
    Spans.enter t.spans sp_pmgr;
    let t0 = Clock.now_ns () in
    (match Rp_control.Pmgr.exec t.bed.Bed.router cmd with
     | Ok _ -> ()
     | Error _ -> u.errors <- u.errors + 1);
    let t1 = Clock.now_ns () in
    Spans.leave t.spans;
    u.issued <- t0;
    u.exec_done <- t1;
    u.pending <- true
  end

let expiry_step t x =
  let sim = t.pos * t.sim_ns_per_pkt in
  if sim >= x.next_sim then begin
    x.next_sim <- sim + x.every_sim_ns;
    tick_clock t;
    Spans.enter t.spans sp_expire_flows;
    let t0 = Clock.now_ns () in
    ignore (Engine.expire_flows t.bed.Bed.engine ~now:t.sim_now ~idle_ns:x.idle_ns);
    let t1 = Clock.now_ns () in
    Spans.leave t.spans;
    let t2 =
      match t.bed.Bed.sessions with
      | Some s ->
        Spans.enter t.spans sp_expire_sessions;
        ignore (Session.Table.expire s ~now:t.sim_now);
        let t2 = Clock.now_ns () in
        Spans.leave t.spans;
        x.live_max <- max x.live_max (Session.Table.length s);
        t2
      | None -> t1
    in
    if x.passes < Array.length x.flows_ns then begin
      x.flows_ns.(x.passes) <- t1 - t0;
      x.sessions_ns.(x.passes) <- t2 - t1
    end;
    x.passes <- x.passes + 1
  end

let control t now =
  (match t.updates with Some u -> update_step t u now | None -> ());
  match t.expiry with Some x -> expiry_step t x | None -> ()

(* Closed-loop back-off: with the window full and no result ready,
   the control domain sleeps instead of spinning, so it does not take
   the processor from the worker domain it is waiting for (the two
   vCPUs of a small VM may share one physical core).  The window holds
   several times the work of one sleep. *)
let idle_sleep_s = 50e-6

let closed_step t =
  Spans.set_batch t.spans t.pos;
  Spans.enter t.spans sp_batch;
  let refill = t.in_flight + batch <= t.window in
  if refill then begin
    Spans.enter t.spans sp_fill;
    for _ = 1 to batch do
      emit t
    done;
    Spans.leave t.spans;
    push t
  end;
  let n = drain t in
  Spans.leave t.spans;
  control t (Clock.now_ns ());
  if n = 0 && not refill then Unix.sleepf idle_sleep_s

let settle_timeout_ns = 10_000_000_000

(* Drain until nothing is in flight; false if the engine stopped
   returning results for [settle_timeout_ns]. *)
let settle t =
  let deadline = Clock.now_ns () + settle_timeout_ns in
  while t.in_flight > 0 && Clock.now_ns () < deadline do
    if drain t = 0 then Domain.cpu_relax ()
  done;
  t.in_flight = 0

let warm t ~packets =
  let target = t.pos + packets in
  while t.pos < target do
    closed_step t
  done;
  settle t

(* One closed-loop window of at least [window_pkts] results, traced
   when [traced]; returns its throughput in Mpps.  With control updates,
   the window issues one as it opens and lasts until it has reached
   the worker, so every window pays for one whole publication and
   sync.  Packets still in flight at the end are left for [settle]. *)
let closed_window t ~window_pkts ~traced =
  t.spans.Spans.on <- traced;
  Option.iter (fun u -> u.due <- 0) t.updates;
  let t0 = Clock.now_ns () and done0 = t.completed in
  let stop = done0 + window_pkts in
  let updating () = match t.updates with Some u -> u.pending || u.due = 0 | None -> false in
  while t.completed < stop || updating () do
    closed_step t
  done;
  let mpps = float_of_int (t.completed - done0) /. (float_of_int (Clock.now_ns () - t0) /. 1e3) in
  t.spans.Spans.on <- false;
  mpps

(* Size the open-loop arrays for [packets] packets (before timing
   starts); every entry starts out lost. *)
let prepare_open t ~rate ~packets =
  t.rate <- rate;
  t.lat <- Array.make packets max_int;
  t.lag <- Array.make packets 0

(* Open-loop packets [first .. first + count - 1] of the phase, the
   first one due 100 us from now. *)
let open_loop t ~first ~count ~traced =
  let stop = first + count in
  t.spans.Spans.on <- traced;
  t.open_base <- t.pos - first;
  t.sched0 <- Clock.now_ns () + 100_000 - (first * 1_000_000_000 / t.rate);
  let i = ref first in
  while !i < stop do
    let now = Clock.now_ns () in
    let k0 = !i in
    while !i < stop && !i - k0 < batch && t.sched0 + (!i * 1_000_000_000 / t.rate) <= now do
      t.lag.(!i) <- now - (t.sched0 + (!i * 1_000_000_000 / t.rate));
      emit t;
      incr i
    done;
    if !i > k0 then begin
      Spans.set_batch t.spans t.pos;
      push t
    end;
    let n = if t.in_flight > 0 then drain t else 0 in
    control t now;
    if n = 0 && !i = k0 then Domain.cpu_relax ()
  done;
  let settled = settle t in
  t.open_base <- max_int;
  t.spans.Spans.on <- false;
  settled
