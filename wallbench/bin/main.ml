(* Wall-clock router benchmark.

     main.exe --workload cached-64b|nat-churn|control-churn --seed N
              --seconds S --trace 0|1

   Generates the workload's packets from the seed, builds the router
   several times before and several times after the measurement
   (setup_s is the fastest build + warm-up), and in between runs S
   seconds of rounds, each a 50 ms open-loop segment at the workload's
   fixed rate (latency, loss) followed by one closed-loop window of
   about 50 ms (throughput, allocation; on control-churn it also
   carries one control update from issue to sync).  Prints every
   metric with its unit and sample count, then, as the last line, one
   JSON object: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1 (a separate run that records spans and
   probes each layer; its spans go to
   .wallbench/spans-<workload>-<seed>.json).  Exits 1 when a
   correctness check fails. *)

open Wallbench
module Engine = Rp_engine.Engine
module Session = Rp_session.Session
module Drop_reason = Rp_obs.Drop_reason

(* One round per 100 ms of run time. *)
let round_ns = 100_000_000

(* Gates a per-gate probe figure is reported for (0 where a workload
   binds nothing there), in data-path order. *)
let reported_gates =
  Rp_core.Gate.[ Ip_options; Security_in; Firewall; Security_out; Stats; Scheduling ]

let usage () =
  prerr_endline
    "usage: main.exe --workload cached-64b|nat-churn|control-churn --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := List.assoc_opt w Bed.workloads;
      if !workload = None then usage ();
      go rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := int_of_string_opt s;
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some s, Some tr when s >= 1 -> (w, seed, s, tr)
  | _ -> usage ()

(* Nearest-rank quantile. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "quantile: no samples"
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let fi = float_of_int
let us ns = fi ns /. 1e3
let ratio a b = if b = 0.0 then 0.0 else a /. b
let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name)

type metric = { name : string; value : float; unit_ : string; samples : string }

let m name value unit_ samples = { name; value; unit_; samples }

(* Program counters read at the start of the measurement. *)
type counters0 = {
  hits : int;
  misses : int;
  recycled : int;
  invalidated : int;
  sched_drops : int;
  delta_applies : int;
  flow_flushes : int;
  sessions : Session.Table.stats option;
  gc : Alloc.snapshot;
  offered : int;
  completed : int;
}

let read_counters (d : Loadgen.t) =
  {
    hits = counter "flow_table.hits";
    misses = counter "flow_table.misses";
    recycled = counter "flow_table.recycled";
    invalidated = counter "flow_table.invalidated";
    sched_drops = counter "sched.drops" + counter "iface.fifo.drops";
    delta_applies = counter "engine.shard0.delta_applies";
    flow_flushes = counter "engine.shard0.flow_flushes";
    sessions = Option.map Session.Table.stats d.Loadgen.bed.Bed.sessions;
    gc = Alloc.snapshot ();
    offered = d.Loadgen.offered;
    completed = d.Loadgen.completed;
  }

(* Everything the metrics are computed from. *)
type run = {
  d : Loadgen.t;
  setup : float array;
  rounds : int;
  mpps : float array;  (** per closed-loop window *)
  round_p50 : float array;  (** per open-loop segment, us *)
  closed_words : float;
  closed_pkts : int;
  c0 : counters0;
  c1 : counters0;  (** after the measurement, workers joined *)
  heap_mb : float;
  chain_max : int;
  checks : Checks.result list;
}

let new_loadgen w gen ~expected ~rounds bed =
  let updates =
    match w with
    | Bed.Control_churn ->
      Some (Loadgen.make_updates ~cmds:(Bed.control_updates bed) ~capacity:rounds)
    | Bed.Cached_64b | Bed.Nat_churn -> None
  in
  let expiry =
    match w with
    | Bed.Nat_churn ->
      Some
        (Loadgen.make_expiry ~every_sim_ns:Bed.expiry_period_sim_ns
           ~idle_ns:Bed.session_udp_timeout_ns ~capacity:10_000)
    | Bed.Cached_64b | Bed.Control_churn -> None
  in
  let p = Bed.params w in
  Loadgen.create ?updates ?expiry ~expected ~sim_ns_per_pkt:(1_000_000_000 / p.Bed.open_rate) bed gen

(* [p.builds] set-ups (build + warm-up), numbered from [first]: their
   times, the last one's load generator (still live) and the program
   counters read just before it was built. *)
let setups w gen ~seed ~expected ~rounds ~first =
  let p = Bed.params w in
  let times = Array.make p.Bed.builds 0.0 in
  let kept = ref None and base = ref (Checks.baseline ()) in
  for k = 0 to p.Bed.builds - 1 do
    Option.iter (fun (d : Loadgen.t) -> Bed.teardown d.Loadgen.bed) !kept;
    Gc.full_major ();
    base := Checks.baseline ();
    let t0 = Clock.now_ns () in
    let bed = Bed.build w gen ~seed ~rep:(first + k) in
    let d = new_loadgen w gen ~expected ~rounds bed in
    let warm_ok = Loadgen.warm d ~packets:p.Bed.warmup in
    times.(k) <- fi (Clock.now_ns () - t0) /. 1e9;
    if not warm_ok then failwith "warm-up: engine stopped returning results";
    kept := Some d
  done;
  (times, Option.get !kept, !base)

let measure w ~seed ~seconds ~trace =
  let p = Bed.params w in
  (* Inputs, before anything is timed. *)
  let gen = Bed.generate w ~seed in
  let expected = Checks.reference_egress gen in
  let rounds = max 2 (seconds * 1_000_000_000 / round_ns) in
  let setup, d, b0 = setups w gen ~seed ~expected ~rounds ~first:0 in
  let e = d.Loadgen.bed.Bed.engine in
  (* Rounds of an open-loop segment then a closed-loop window, so both
     phases sample the whole run. *)
  let seg = p.Bed.open_rate * (round_ns / 2 / 1_000_000) / 1000 in
  Loadgen.prepare_open d ~rate:p.Bed.open_rate ~packets:(seg * rounds);
  let mpps = Array.make rounds 0.0 in
  let c0 = read_counters d in
  let settled = ref true and closed_words = ref 0.0 and closed_pkts = ref 0 in
  for k = 0 to rounds - 1 do
    settled := Loadgen.open_loop d ~first:(k * seg) ~count:seg ~traced:trace && !settled;
    let a0 = Alloc.snapshot () and done0 = d.Loadgen.completed in
    (* the traced run traces every other window: trace.overhead_share *)
    mpps.(k) <- Loadgen.closed_window d ~window_pkts:p.Bed.window_pkts ~traced:(trace && k land 1 = 1);
    settled := Loadgen.settle d && !settled;
    (* the workers' last words are exact once they are joined *)
    if k = rounds - 1 then Engine.stop e;
    closed_words := !closed_words +. ((Alloc.snapshot ()).Alloc.minor_words -. a0.Alloc.minor_words);
    closed_pkts := !closed_pkts + (d.Loadgen.completed - done0)
  done;
  let c1 = read_counters d in
  let heap_mb = Alloc.reachable_mb d.Loadgen.bed in
  let chain_max = (Engine.shard_flow_stats e 0).Rp_classifier.Flow_table.chain_max in
  (* Correctness. *)
  let session_check = Checks.sessions d.Loadgen.bed in
  Engine.flush_flows e;
  let checks =
    [
      Checks.settled !settled;
      Checks.egress d;
      Checks.accounting d b0;
      Checks.flow_export b0;
      session_check;
      Checks.updates d;
    ]
  in
  let round_p50 =
    Array.init rounds (fun k -> us (quantile (Array.sub d.Loadgen.lat (k * seg) seg) 0.5))
  in
  {
    d;
    setup;
    rounds;
    mpps;
    round_p50;
    closed_words = !closed_words;
    closed_pkts = !closed_pkts;
    c0;
    c1;
    heap_mb;
    chain_max;
    checks;
  }

let losses (d : Loadgen.t) =
  d.Loadgen.refused + d.Loadgen.link_drops + d.Loadgen.pool_exhausted
  + d.Loadgen.drops.(Loadgen.reason_index Drop_reason.Queue_overflow)

(* Update latency: (count, p50 ms, p95 ms, Pmgr.exec p50 us, sync wait p50 us). *)
let update_stats (d : Loadgen.t) =
  match d.Loadgen.updates with
  | Some u when u.Loadgen.n > 0 ->
    let n = u.Loadgen.n in
    let q a x = quantile (Array.sub a 0 n) x in
    ( n,
      fi (q u.Loadgen.sync_ns 0.5) /. 1e6,
      fi (q u.Loadgen.sync_ns 0.95) /. 1e6,
      us (q u.Loadgen.exec_ns 0.5),
      us (q u.Loadgen.wait_ns 0.5) )
  | _ -> (0, 0.0, 0.0, 0.0, 0.0)

(* The host is shared: a neighbour's burst only ever slows a build, a
   window or a round down, so the set-up time, throughput and median
   latency the router itself achieves are the best of the run's builds,
   ~50 ms windows and rounds. *)
let e2e r =
  [
    m "setup_s" (quantile r.setup 0.0) "s"
      (Printf.sprintf "fastest of %d builds" (Array.length r.setup));
    m "fwd_mpps" (quantile r.mpps 1.0) "Mpps" (Printf.sprintf "best of %d windows" r.rounds);
    m "lat_p50_us" (quantile r.round_p50 0.0) "us"
      (Printf.sprintf "best of %d rounds' medians, %d packets" r.rounds
         (Array.length r.d.Loadgen.lat));
    m "alloc_words_per_pkt" (r.closed_words /. fi r.closed_pkts) "words"
      (Printf.sprintf "%d packets, all domains" r.closed_pkts);
    m "router_heap_mb" r.heap_mb "MB" "reachable from the router, end of run";
  ]

(* Printed with the end-to-end metrics, not gated (see METRICS.md). *)
let e2e_ungated r =
  let d = r.d in
  let nlat = Array.length d.Loadgen.lat in
  let lost = Array.fold_left (fun a x -> if x = max_int then a + 1 else a) 0 d.Loadgen.lat in
  let attempted = d.Loadgen.offered - r.c0.offered in
  let n, p50, p95, _, _ = update_stats d in
  [
    m "lat_p99_us" (us (quantile d.Loadgen.lat 0.99)) "us"
      (Printf.sprintf "%d packets, %d beyond" nlat (nlat - int_of_float (Float.ceil (0.99 *. fi nlat))));
    m "loss_share" (ratio (fi (losses d)) (fi attempted)) "share"
      (Printf.sprintf "%d offered, %d open-loop lost" attempted lost);
    m "update_p50_ms" p50 "ms" (Printf.sprintf "%d updates" n);
    m "update_p95_ms" p95 "ms"
      (Printf.sprintf "%d updates, %d beyond" n (n - int_of_float (Float.ceil (0.95 *. fi n))));
  ]

let layer_metrics r =
  let d = r.d and c0 = r.c0 and c1 = r.c1 in
  let bed = d.Loadgen.bed in
  let sp = d.Loadgen.spans in
  let per n x = ratio (fi x) (fi n) in
  let upd_n, _, _, exec_p50, wait_p50 = update_stats d in
  let half = r.rounds / 2 in
  let traced = quantile (Array.init half (fun i -> r.mpps.((2 * i) + 1))) 0.5
  and plain = quantile (Array.init half (fun i -> r.mpps.(2 * i))) 0.5 in
  (* Probes, on the warmed state with the last recorded packets. *)
  let router = bed.Bed.router in
  let rec_ = Probes.recorded d in
  let empty = Probes.empty_region () in
  let pool_ns = Probes.pool_ns d rec_ in
  let proc_ns, proc_words = Probes.process d router rec_ ~passes:4 in
  let be_ns = Probes.best_effort d rec_ ~passes:4 in
  let gate_costs = Probes.gates d router rec_ empty in
  let ge_ns = Probes.gate_enabled_ns router in
  let lpm_ns, lpm_words, lpm_acc = Probes.lpm d router rec_ empty in
  let hit_ns = Probes.flow_hit d router rec_ empty in
  let cold_ns, cold_words, cold_acc = Probes.cold d router rec_ empty in
  let resolve_ns = Probes.session_resolve d rec_ empty in
  let sched_ns = Probes.sched d router rec_ empty in
  let publish_ns = Probes.publish_ns bed.Bed.engine in
  let gate_sum = Array.fold_left (fun a (_, (ns, _)) -> a +. ns) 0.0 gate_costs in
  (* A NAT session caches the next hop, so the LPM is off the steady
     path when sessions are bound. *)
  let stage_ns =
    gate_sum
    +. (if bed.Bed.sessions = None then lpm_ns else 0.0)
    +. (ge_ns *. fi Rp_core.Gate.count)
    +. if List.mem Rp_core.Gate.Scheduling bed.Bed.gates then sched_ns else 0.0
  in
  let gate_metric g =
    let name = String.map (fun c -> if c = '-' then '_' else c) (Rp_core.Gate.name g) in
    let ns, words =
      match Array.find_opt (fun (g', _) -> g' = g) gate_costs with
      | Some (_, c) -> c
      | None -> (0.0, 0.0)
    in
    [
      m (Printf.sprintf "core.gate.%s.ns" name) ns "ns" "8192 packets";
      m (Printf.sprintf "core.gate.%s.words" name) words "words" "8192 packets";
    ]
  in
  let drops =
    Array.to_list
      (Array.mapi
         (fun i reason ->
           let n =
             match reason with
             | Drop_reason.Backpressure -> d.Loadgen.refused
             | Drop_reason.Link_overflow -> d.Loadgen.link_drops
             | Drop_reason.Pool_exhausted -> d.Loadgen.pool_exhausted
             | _ -> d.Loadgen.drops.(i)
           in
           m ("core.drops." ^ Drop_reason.name reason) (fi n) "count" "whole run")
         Loadgen.reasons)
  in
  let sess f =
    match (c0.sessions, c1.sessions) with Some s0, Some s1 -> fi (f s1 - f s0) | _ -> 0.0
  in
  let expiry_ms f =
    match d.Loadgen.expiry with
    | Some x when x.Loadgen.passes > 0 ->
      let a = f x in
      fi (quantile (Array.sub a 0 (min x.Loadgen.passes (Array.length a))) 0.5) /. 1e6
    | _ -> 0.0
  in
  let pkts = c1.completed - c0.completed in
  let lookups = c1.hits - c0.hits + (c1.misses - c0.misses) in
  [
    m "pkt.pool_ns_per_pkt" pool_ns "ns" "8192 alloc/free";
    m "pkt.pool_exhausted" (fi d.Loadgen.pool_exhausted) "count" "whole run";
    m "pkt.link_txdrops" (fi d.Loadgen.link_drops) "count" "whole run";
    m "engine.submit_ns_per_pkt"
      (per d.Loadgen.traced_submitted (Spans.self_ns sp Loadgen.sp_submit))
      "ns" (Printf.sprintf "%d packets" d.Loadgen.traced_submitted);
    m "engine.drain_ns_per_pkt"
      (per d.Loadgen.traced_results (Spans.self_ns sp Loadgen.sp_drain))
      "ns" (Printf.sprintf "%d results" d.Loadgen.traced_results);
    m "engine.results_per_drain"
      (per (Spans.count sp Loadgen.sp_drain) d.Loadgen.traced_results)
      "count" (Printf.sprintf "%d non-empty drains" (Spans.count sp Loadgen.sp_drain));
    m "engine.empty_drains"
      (let w = Spans.total_ns sp Loadgen.sp_drain_empty in
       per (w + Spans.total_ns sp Loadgen.sp_drain) w)
      "share" (Printf.sprintf "of drain time, %d empty drains" (Spans.count sp Loadgen.sp_drain_empty));
    m "engine.submit_refused" (fi d.Loadgen.refused) "count" "whole run";
    m "engine.publish_ns" publish_ns "ns" "median of 200";
    m "engine.sync_wait_us" wait_p50 "us" (Printf.sprintf "median of %d updates" upd_n);
    m "engine.delta_replay_share"
      (let da = c1.delta_applies - c0.delta_applies in
       per (da + c1.flow_flushes - c0.flow_flushes) da)
      "share" "shard 0";
    m "engine.flows_invalidated_per_update"
      (per upd_n (c1.invalidated - c0.invalidated))
      "count" (Printf.sprintf "%d updates" upd_n);
    m "control.pmgr_exec_us" exec_p50 "us" (Printf.sprintf "median of %d updates" upd_n);
    m "core.process_ns_per_pkt" proc_ns "ns" "4 x 8192 packets";
    m "core.process_words_per_pkt" proc_words "words" "4 x 8192 packets";
    m "core.best_effort_ns_per_pkt" be_ns "ns" "4 x 8192 packets";
    m "core.framework_ratio" (ratio proc_ns be_ns) "ratio" "process / best effort";
  ]
  @ List.concat_map gate_metric reported_gates
  @ [
      m "core.gate_enabled_ns" ge_ns "ns" "100000 calls";
      m "core.unattributed_share" (1.0 -. ratio stage_ns proc_ns) "share" "1 - stages / process";
    ]
  @ drops
  @ [
      m "lpm.lookup_ns" lpm_ns "ns" "8192 lookups";
      m "lpm.lookup_words" lpm_words "words" "8192 lookups";
      m "lpm.accesses_per_lookup" lpm_acc "count" "8192 lookups";
      m "classifier.flow_hit_ns" hit_ns "ns" "8192 lookups";
      m "classifier.miss_share" (per lookups (c1.misses - c0.misses)) "share"
        (Printf.sprintf "%d lookups" lookups);
      m "classifier.cold_ns" cold_ns "ns" "8192 new flows";
      m "classifier.cold_words" cold_words "words" "8192 new flows";
      m "classifier.cold_accesses" cold_acc "count" "8192 new flows";
      m "classifier.recycled" (fi (c1.recycled - c0.recycled)) "count" "whole run";
      m "classifier.chain_max" (fi r.chain_max) "count" "end of run";
      m "classifier.expire_ms" (expiry_ms (fun x -> x.Loadgen.flows_ns)) "ms" "median pass";
      m "session.resolve_ns" resolve_ns "ns" "8192 lookups";
      m "session.cached_hit_share"
        (let c = sess (fun s -> s.Session.Table.cached_hits)
         and l = sess (fun s -> s.Session.Table.lookups) in
         ratio c (c +. l))
        "share" "whole run";
      m "session.live_max"
        (match d.Loadgen.expiry with Some x -> fi x.Loadgen.live_max | None -> 0.0)
        "count" "at expiry passes";
      m "session.expire_ms" (expiry_ms (fun x -> x.Loadgen.sessions_ns)) "ms" "median pass";
      m "session.ct_drops" (sess (fun s -> s.Session.Table.ct_drops)) "count" "whole run";
      m "session.key_conflicts" (sess (fun s -> s.Session.Table.key_conflicts)) "count" "whole run";
      m "sched.enqueue_dequeue_ns" sched_ns "ns" "8192 packets";
      m "sched.drops" (fi (c1.sched_drops - c0.sched_drops)) "count" "whole run";
      m "gc.minor_collections" (fi (c1.gc.Alloc.minor_collections - c0.gc.Alloc.minor_collections))
        "count" "whole run";
      m "gc.major_collections" (fi (c1.gc.Alloc.major_collections - c0.gc.Alloc.major_collections))
        "count" "whole run";
      m "gc.promoted_words_per_pkt"
        ((c1.gc.Alloc.promoted_words -. c0.gc.Alloc.promoted_words) /. fi pkts)
        "words" "whole run";
      m "driver.gen_lag_p99_us" (us (quantile d.Loadgen.lag 0.99)) "us"
        (Printf.sprintf "%d packets" (Array.length d.Loadgen.lag));
      m "trace.overhead_share" (1.0 -. ratio traced plain) "share"
        (Printf.sprintf "%d traced vs %d plain windows" half half);
      m "workload.first_packet_share"
        (per (Array.length d.Loadgen.gen.Gen.trace) d.Loadgen.gen.Gen.first_packets)
        "share" "trace";
      m "workload.distinct_flows" (fi (Array.length d.Loadgen.gen.Gen.keys)) "count" "trace";
    ]
  @ e2e_ungated r

let () =
  let w, seed, seconds, trace = parse_args () in
  let r = measure w ~seed ~seconds ~trace in
  let d = r.d in
  let layers = if trace then layer_metrics r else [] in
  Bed.teardown d.Loadgen.bed;
  (* The second half of the set-ups, a whole run after the first, so a
     burst of other tenants' load cannot cover all of them. *)
  let late, last, _ =
    setups w d.Loadgen.gen ~seed ~expected:d.Loadgen.expected ~rounds:r.rounds
      ~first:(Array.length r.setup)
  in
  Bed.teardown last.Loadgen.bed;
  let r = { r with setup = Array.append r.setup late } in
  let correct = List.for_all (fun c -> c.Checks.ok) r.checks in
  let upd_n, _, _, _, _ = update_stats d in
  let lookups = r.c1.hits - r.c0.hits + (r.c1.misses - r.c0.misses) in
  Printf.printf "workload %s  seed %d  %d s  engine %s  trace %b\n" (Bed.workload_name w) seed
    seconds (Engine.mode_to_string (Engine.mode d.Loadgen.bed.Bed.engine)) trace;
  Printf.printf
    "properties: flow-cache miss share %.4f, first-packet share %.4f, %d distinct flows, %d updates\n"
    (ratio (fi (r.c1.misses - r.c0.misses)) (fi lookups))
    (ratio (fi d.Loadgen.gen.Gen.first_packets) (fi (Array.length d.Loadgen.gen.Gen.trace)))
    (Array.length d.Loadgen.gen.Gen.keys) upd_n;
  List.iter
    (fun c ->
      Printf.printf "check %-40s %s  %s\n" c.Checks.name
        (if c.Checks.ok then "ok" else "FAILED")
        c.Checks.detail)
    r.checks;
  let show l =
    List.iter (fun x -> Printf.printf "  %-36s %14.6f %-6s (%s)\n" x.name x.value x.unit_ x.samples) l
  in
  let line label fmt a =
    Printf.printf "%s:%s\n" label (String.concat "" (Array.to_list (Array.map (Printf.sprintf fmt) a)))
  in
  line "set-up builds (s)" " %.4f" r.setup;
  line "closed-loop windows (Mpps)" " %.4f" r.mpps;
  line "open-loop round medians (us)" " %.3f" r.round_p50;
  print_endline "end-to-end:";
  let gated = e2e r in
  show (gated @ e2e_ungated r);
  let reported =
    if not trace then gated
    else begin
      print_endline "per-layer:";
      show layers;
      (try Sys.mkdir ".wallbench" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".wallbench/spans-%s-%d.json" (Bed.workload_name w) seed in
      Spans.write d.Loadgen.spans path;
      Printf.printf "spans: %s\n" path;
      layers
    end
  in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let failed =
    d.Loadgen.egress_mismatch + losses d
    + match d.Loadgen.updates with Some u -> u.Loadgen.errors | None -> 0
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (d.Loadgen.offered - r.c0.offered) failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit_)
          reported));
  exit (if correct then 0 else 1)
