(* Per-layer probes of the traced run.

   Each probe calls one layer's public function on the warmed state of
   the run that just ended, with the workload's own recorded packets
   (the last [probe_packets] positions of the trace the load
   generator replayed), and measures wall ns per call from outside; allocation is
   the calling domain's [Gc.minor_words], the only domain a probe runs
   on.  Per-call figures subtract the cost of an empty timed region. *)

open Rp_pkt
open Rp_core
module Aiu = Rp_classifier.Aiu
module Session = Rp_session.Session

let probe_packets = 8192

(* Recorded packets: trace entries of the last [probe_packets]
   positions the load generator sent. *)
let recorded (d : Loadgen.t) =
  Array.init probe_packets (fun i ->
      d.Loadgen.gen.Gen.trace.((d.Loadgen.pos - probe_packets + i) land d.Loadgen.mask))

let key_of (d : Loadgen.t) e = d.Loadgen.gen.Gen.keys.(Gen.flow_of e)

(* Cost of an empty timed region: two clock reads (ns) and two
   allocation-counter reads (words). *)
let empty_region () =
  let n = 10_000 in
  let ns = ref 0 and words = ref 0.0 in
  for _ = 1 to n do
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let t1 = Clock.now_ns () in
    let w1 = Gc.minor_words () in
    ns := !ns + (t1 - t0);
    words := !words +. (w1 -. w0)
  done;
  (float_of_int !ns /. float_of_int n, !words /. float_of_int n)

type region = {
  mutable ns : int;
  mutable words : float;
  mutable calls : int;
}

let region () = { ns = 0; words = 0.0; calls = 0 }

(* Per-call ns and words of a region, net of the empty-region cost. *)
let per_call (ens, ewords) r =
  if r.calls = 0 then (0.0, 0.0)
  else
    let c = float_of_int r.calls in
    (Float.max 0.0 ((float_of_int r.ns /. c) -. ens), Float.max 0.0 ((r.words /. c) -. ewords))

let[@inline] timed r f x =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let v = f x in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  r.ns <- r.ns + (t1 - t0);
  r.words <- r.words +. (w1 -. w0);
  r.calls <- r.calls + 1;
  v

(* Whole-loop ns per iteration for layers too cheap to time per call. *)
let loop_ns n f =
  let t0 = Clock.now_ns () in
  for i = 0 to n - 1 do
    f i
  done;
  float_of_int (Clock.now_ns () - t0) /. float_of_int n

let pool_ns (d : Loadgen.t) rec_ =
  let pool = d.Loadgen.bed.Bed.pool in
  loop_ns (Array.length rec_) (fun i ->
      let e = rec_.(i) in
      Pool.free pool (Pool.alloc pool ~key:(key_of d e) ~len:(Gen.len_of e)))

(* Free whatever the data path queued on the egress interfaces. *)
let drain_ifaces r pool =
  Array.iter
    (fun ifc ->
      let rec go () =
        match Iface.dequeue ifc ~now:0L with
        | Some m ->
          Pool.free pool m;
          go ()
        | None -> ()
      in
      go ())
    r.Router.ifaces

(* [process_batch] over the recorded packets in batches of 32: one
   warm pass, then [passes] timed passes.  Returns (ns, words) per
   packet. *)
let process (d : Loadgen.t) r rec_ ~passes =
  let pool = d.Loadgen.bed.Bed.pool in
  let now = d.Loadgen.sim_now in
  let b = Array.make Loadgen.batch d.Loadgen.batch_buf.(0) in
  let reg = region () in
  let emit m = function Ip_core.Enqueued _ -> () | _ -> Pool.free pool m in
  let run_batch () = Ip_core.process_batch r ~emit ~now b ~n:Loadgen.batch in
  let pass ~time =
    let i = ref 0 in
    while !i + Loadgen.batch <= Array.length rec_ do
      for k = 0 to Loadgen.batch - 1 do
        let e = rec_.(!i + k) in
        b.(k) <- Pool.alloc pool ~key:(key_of d e) ~len:(Gen.len_of e)
      done;
      if time then timed reg run_batch () else run_batch ();
      drain_ifaces r pool;
      i := !i + Loadgen.batch
    done
  in
  pass ~time:false;
  for _ = 1 to passes do
    pass ~time:true
  done;
  let pkts = float_of_int (reg.calls * Loadgen.batch) in
  (float_of_int reg.ns /. pkts, reg.words /. pkts)

(* The same packets through a best-effort router with the same routes. *)
let best_effort (d : Loadgen.t) rec_ ~passes =
  let ifaces =
    List.init (Gen.egress_ifaces + 1) (fun id -> Iface.create ~id ~fifo_limit:max_int ())
  in
  let r = Router.create ~mode:Router.Best_effort ~gates:[] ~ifaces () in
  Array.iter (fun (p, iface) -> Router.add_route r p ~iface ()) d.Loadgen.gen.Gen.routes;
  fst (process d r rec_ ~passes)

(* Each bound gate in data-path order on one fresh packet, as the core
   invokes them: the first pays the flow-table probe, the rest follow
   the FIX.  Returns per-gate (ns, words). *)
let gates (d : Loadgen.t) r rec_ empty =
  let pool = d.Loadgen.bed.Bed.pool in
  let now = d.Loadgen.sim_now in
  let gs = Array.of_list d.Loadgen.bed.Bed.gates in
  let regs = Array.map (fun _ -> region ()) gs in
  Array.iter
    (fun e ->
      let m = Pool.alloc pool ~key:(key_of d e) ~len:(Gen.len_of e) in
      Array.iteri
        (fun j gate -> ignore (timed regs.(j) (Ip_core.invoke_gate r ~now ~gate) m))
        gs;
      Pool.free pool m)
    rec_;
  Array.mapi (fun j g -> (g, per_call empty regs.(j))) gs

let gate_enabled_ns r =
  let all = Array.of_list Gate.all in
  let hits = ref 0 in
  let ns =
    loop_ns 100_000 (fun i -> if Router.gate_enabled r all.(i land 7) then incr hits)
  in
  ignore (Sys.opaque_identity !hits);
  ns

(* Route lookups of the recorded destinations: (ns, words, accesses). *)
let lpm (d : Loadgen.t) r rec_ empty =
  let reg = region () in
  Rp_lpm.Access.set_enabled true;
  let (), accesses =
    Rp_lpm.Access.measure (fun () ->
        Array.iter
          (fun e ->
            ignore (timed reg (Route_table.lookup r.Router.routes) (key_of d e).Flow_key.dst))
          rec_)
  in
  Rp_lpm.Access.set_enabled false;
  let ns, words = per_call empty reg in
  (ns, words, float_of_int accesses /. float_of_int reg.calls)

let first_gate (d : Loadgen.t) = Gate.to_int (List.hd d.Loadgen.bed.Bed.gates)

(* Flow-cache hits: recorded keys, already cached by the warm pass. *)
let flow_hit (d : Loadgen.t) r rec_ empty =
  let aiu = Router.aiu r and gate = first_gate d and now = d.Loadgen.sim_now in
  let reg = region () in
  Array.iter (fun e -> ignore (timed reg (fun k -> Aiu.classify_key aiu k ~gate ~now) (key_of d e))) rec_;
  fst (per_call empty reg)

(* Cold classification: keys never seen (sources outside 10/8) to the
   recorded destinations — a flow-table miss, the compiled walk for
   every gate and an insert each.  (ns, words, accesses). *)
let cold (d : Loadgen.t) r rec_ empty =
  let aiu = Router.aiu r and gate = first_gate d and now = d.Loadgen.sim_now in
  let keys =
    Array.mapi
      (fun i e ->
        let k = key_of d e in
        Flow_key.make
          ~src:(Ipaddr.v4 11 ((i lsr 16) land 0xFF) ((i lsr 8) land 0xFF) (i land 0xFF))
          ~dst:k.Flow_key.dst ~proto:k.Flow_key.proto ~sport:k.Flow_key.sport
          ~dport:k.Flow_key.dport ~iface:0)
      rec_
  in
  let reg = region () in
  Rp_lpm.Access.set_enabled true;
  let (), accesses =
    Rp_lpm.Access.measure (fun () ->
        Array.iter (fun k -> ignore (timed reg (fun k -> Aiu.classify_key aiu k ~gate ~now) k)) keys)
  in
  Rp_lpm.Access.set_enabled false;
  let ns, words = per_call empty reg in
  (ns, words, float_of_int accesses /. float_of_int reg.calls)

let session_resolve (d : Loadgen.t) rec_ empty =
  match d.Loadgen.bed.Bed.sessions with
  | None -> 0.0
  | Some s ->
    let now = d.Loadgen.sim_now in
    let reg = region () in
    Array.iter
      (fun e ->
        ignore
          (timed reg (fun k -> Session.Table.resolve s ~create:false k ~now ~tcp_flags:0) (key_of d e)))
      rec_;
    fst (per_call empty reg)

(* Enqueue + dequeue on an egress interface's qdisc (DRR where
   attached, else the FIFO), with the flow's scheduling-gate binding
   when that gate is bound. *)
let sched (d : Loadgen.t) r rec_ empty =
  let pool = d.Loadgen.bed.Bed.pool and now = d.Loadgen.sim_now in
  let aiu = Router.aiu r in
  let sgate = Gate.to_int Gate.Scheduling in
  let reg = region () in
  Array.iter
    (fun e ->
      let k = key_of d e in
      let binding =
        if List.mem Gate.Scheduling d.Loadgen.bed.Bed.gates then
          match Aiu.classify_key aiu k ~gate:sgate ~now with
          | Some (_, record) -> Rp_classifier.Flow_table.binding record ~gate:sgate
          | None -> None
        else None
      in
      let ifc = Router.iface r d.Loadgen.expected.(d.Loadgen.gen.Gen.flow_dst.(Gen.flow_of e)) in
      let m = Pool.alloc pool ~key:k ~len:(Gen.len_of e) in
      let out =
        timed reg
          (fun m ->
            ignore (Iface.enqueue ifc ~now ~binding m);
            Iface.dequeue ifc ~now)
          m
      in
      Option.iter (Pool.free pool) out;
      drain_ifaces r pool)
    rec_;
  fst (per_call empty reg)

let publish_ns e =
  let n = 200 in
  let samples =
    Array.init n (fun _ ->
        let t0 = Clock.now_ns () in
        Rp_engine.Engine.publish e;
        float_of_int (Clock.now_ns () - t0))
  in
  Array.sort compare samples;
  samples.(n / 2)
