(* The system under test for each workload: router, engine, packet
   pool and link, built only through the public API of the libraries
   (Router, Pcu, Pmgr-style plugin setup, Engine).  [build] is what
   setup_s times, together with the warm-up replayed after it. *)

open Rp_pkt
open Rp_core
module Engine = Rp_engine.Engine
module Session = Rp_session.Session

type workload = Cached_64b | Nat_churn | Control_churn

let workloads =
  [ ("cached-64b", Cached_64b); ("nat-churn", Nat_churn); ("control-churn", Control_churn) ]

let workload_name w = fst (List.find (fun (_, x) -> x = w) workloads)

(* Fixed per-workload parameters; only the seed varies between runs. *)
type params = {
  open_rate : int;  (** open-loop offered rate, packets/s *)
  window_pkts : int;  (** closed-loop window, results *)
  warmup : int;  (** packets replayed after the build, inside setup_s *)
  builds : int;  (** set-ups per batch; setup_s is the fastest of two batches *)
  trace_len : int;
}

(* Closed-loop windows last about 50 ms; nat-churn's is exactly one
   expiry period (0.25 s simulated at 40 us per packet), so every
   window pays for one expiry pass.  A run sets up [builds] times
   before the measurement and [builds] times after it; each batch takes
   about 1-3 s (a set-up is ~0.07 s, ~0.7 s on nat-churn with its longer
   warm-up). *)
let params = function
  | Cached_64b ->
    { open_rate = 100_000; window_pkts = 25_000; warmup = 16_384; builds = 12; trace_len = 1 lsl 18 }
  | Control_churn ->
    { open_rate = 100_000; window_pkts = 25_000; warmup = 16_384; builds = 12; trace_len = 1 lsl 18 }
  | Nat_churn ->
    { open_rate = 25_000; window_pkts = 6_250; warmup = 100_000; builds = 4; trace_len = 1 lsl 20 }

let expiry_period_sim_ns = 250_000_000

let generate w ~seed =
  let p = params w in
  match w with
  | Cached_64b | Control_churn ->
    Gen.long_lived ~seed ~flows:1024 ~pkt_len:64 ~trace_len:p.trace_len
  | Nat_churn ->
    Gen.churning ~seed ~ranks:200_000 ~theta:0.99 ~shape:1.2 ~scale:4.0
      ~dst_pool:4096 ~trace_len:p.trace_len

type t = {
  router : Router.t;
  engine : Engine.t;
  pool : Pool.t;
  link : Link.t;
  sessions : Session.Table.t option;
  gates : Gate.t list;  (** gates with a bound plugin, data-path order *)
  update_instance : int;  (** empty plugin the control-churn updates bind *)
}

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let nat_addr = Ipaddr.v4 198 51 100 7

(* The Table-3 plugin kernel: empty plugins at ip-options, security-in
   and stats, each bound to the wildcard filter, plus 13 inert filters
   at ip-options so 16 filters are installed.  Returns the ip-options
   instance id. *)
let table3_kernel r =
  let pcu = r.Router.pcu in
  let ids =
    List.map
      (fun (gate, name) ->
        ok "modload" (Pcu.modload pcu (Empty_plugin.make ~gate ~name));
        let inst = ok "create" (Pcu.create_instance pcu ~plugin:name []) in
        ok "bind"
          (Pcu.register_instance pcu ~instance:inst.Plugin.instance_id
             (Rp_classifier.Filter.v4 ()));
        inst.Plugin.instance_id)
      [ (Gate.Ip_options, "wb-opt"); (Gate.Security_in, "wb-sec"); (Gate.Stats, "wb-stat") ]
  in
  let aiu = Router.aiu r in
  for i = 1 to 13 do
    Rp_classifier.Aiu.bind aiu ~gate:(Gate.to_int Gate.Ip_options)
      (Rp_classifier.Filter.v4 ~src:(Prefix.make (Ipaddr.v4 172 16 i 0) 24) ~proto:Proto.tcp ())
      (Plugin.simple ~instance_id:(9000 + i) ~code:0 ~plugin_name:"inert"
         ~gate:Gate.Ip_options (fun _ _ -> Plugin.Continue))
  done;
  List.hd ids

(* One DRR instance as the qdisc of each egress interface; the first is
   bound at the scheduling gate, so every flow gets a per-flow queue
   in its flow record's soft state. *)
let attach_drr r =
  let pcu = r.Router.pcu in
  ok "modload drr" (Pcu.modload pcu (Option.get (Rp_control.Plugin_lib.find "drr")));
  for i = 1 to Gen.egress_ifaces do
    let inst = ok "create drr" (Pcu.create_instance pcu ~plugin:"drr" []) in
    Iface.attach_scheduler (Router.iface r i) inst;
    if i = 1 then
      ok "bind drr"
        (Pcu.register_instance pcu ~instance:inst.Plugin.instance_id
           (Rp_classifier.Filter.v4 ~proto:Proto.udp ()))
  done

(* A few hundred random firewall filters of the bench's bulk shape
   (/16../31 source and destination, mixed protocols and ports), bound
   to an inert instance: each first packet pays a real compiled
   classifier traversal. *)
let bulk_firewall r rng n =
  let aiu = Router.aiu r in
  let rand_v4 () =
    Ipaddr.v4 (Random.State.int rng 224) (Random.State.int rng 256)
      (Random.State.int rng 256) (Random.State.int rng 256)
  in
  for i = 1 to n do
    let f =
      Rp_classifier.Filter.v4
        ~src:(Prefix.make (rand_v4 ()) (16 + Random.State.int rng 16))
        ~dst:(Prefix.make (rand_v4 ()) (16 + Random.State.int rng 16))
        ~proto:(if Random.State.bool rng then Proto.tcp else Proto.udp)
        ~dport:
          (if Random.State.int rng 10 < 3 then Rp_classifier.Filter.Port (Random.State.int rng 10)
           else Rp_classifier.Filter.Any_port)
        ()
    in
    Rp_classifier.Aiu.bind aiu ~gate:(Gate.to_int Gate.Firewall) f
      (Plugin.simple ~instance_id:(20_000 + i) ~code:0 ~plugin_name:"inert-fw"
         ~gate:Gate.Firewall (fun _ _ -> Plugin.Continue))
  done

let session_udp_timeout_ns = 2_000_000_000L

(* SNAT of every flow to [nat_addr], with nat, conntrack and nat-out
   sharing one session table. *)
let bind_nat r ~table_name =
  let t = Session.Table.get table_name in
  ignore (Session.Table.flush t);
  Session.Table.add_rule t
    {
      Session.Table.kind = `Snat;
      filter = Rp_classifier.Filter.v4 ();
      addr = nat_addr;
      port = None;
      tos = None;
    };
  Session.Table.set_timeout t `Udp session_udp_timeout_ns;
  let pcu = r.Router.pcu in
  List.iter
    (fun plugin ->
      ok "modload" (Pcu.modload pcu (Option.get (Rp_control.Plugin_lib.find plugin)));
      let i = ok "create" (Pcu.create_instance pcu ~plugin [ ("table", table_name) ]) in
      ok "bind"
        (Pcu.register_instance pcu ~instance:i.Plugin.instance_id (Rp_classifier.Filter.v4 ())))
    [ "nat"; "conntrack"; "nat-out" ];
  t

let flow_max = 65_536

(* Every publication makes the shard rebuild its route table from the
   snapshot, 15-40 ms for 16k routes; 8,192 RX slots hold such a stall
   at 100 kpps, so it shows as latency and update time, not as loss. *)
let control_rx_ring = 8192

(* [rep] distinguishes the repeated builds of one run (session tables
   are registered by name process-wide). *)
let build w (g : Gen.t) ~seed ~rep =
  let gates =
    match w with
    | Cached_64b -> [ Gate.Ip_options; Gate.Security_in; Gate.Stats; Gate.Scheduling ]
    | Control_churn -> [ Gate.Ip_options; Gate.Security_in; Gate.Stats ]
    | Nat_churn -> [ Gate.Security_in; Gate.Firewall; Gate.Security_out ]
  in
  let ifaces =
    List.init (Gen.egress_ifaces + 1) (fun id -> Iface.create ~id ~fifo_limit:max_int ())
  in
  let r =
    match w with
    | Nat_churn -> Router.create ~mode:Router.Plugins ~gates ~flow_max ~ifaces ()
    | Cached_64b | Control_churn -> Router.create ~mode:Router.Plugins ~gates ~ifaces ()
  in
  Array.iter (fun (p, iface) -> Router.add_route r p ~iface ()) g.Gen.routes;
  let update_instance, sessions =
    match w with
    | Cached_64b ->
      let id = table3_kernel r in
      attach_drr r;
      (id, None)
    | Control_churn -> (table3_kernel r, None)
    | Nat_churn ->
      let t = bind_nat r ~table_name:(Printf.sprintf "wallbench-nat-%d" rep) in
      bulk_firewall r (Random.State.make [| seed; 3 |]) 300;
      (0, Some t)
  in
  let engine =
    match w with
    | Control_churn -> Engine.create ~rx_capacity:control_rx_ring (Engine.Sharded 1) r
    | Cached_64b | Nat_churn -> Engine.create Engine.Inline r
  in
  {
    router = r;
    engine;
    pool = Pool.create ~buf_size:0 ~capacity:16_384 ();
    link = Link.create ~capacity:512 ();
    sessions;
    gates;
    update_instance;
  }

let inline t = match Engine.mode t.engine with Engine.Inline -> true | Engine.Sharded _ -> false

(* Stop the workers and export every cached flow record, so a torn-down
   bed leaves nothing unreconciled behind. *)
let teardown t =
  Engine.stop t.engine;
  Engine.flush_flows t.engine;
  Option.iter (fun s -> ignore (Session.Table.flush s)) t.sessions

(* The control-churn mutation stream, as pmgr command lines: pairs of
   bind/unbind of a /28 source filter (16 of the 1,024 flows each) on
   the ip-options instance, and every 16th pair a route add/del of a
   prefix no flow uses. *)
let control_updates t =
  let id = t.update_instance in
  Array.concat
    (List.init 1024 (fun u ->
         if u mod 16 = 15 then
           let p = Printf.sprintf "100.64.%d.0/24" (u / 16) in
           [| Printf.sprintf "route add %s %d" p (1 + (u mod Gen.egress_ifaces));
              Printf.sprintf "route del %s" p |]
         else
           let f =
             Printf.sprintf "<10.0.%d.%d/28, *, UDP, *, *, *>" (u mod 16) (16 * ((u / 16) mod 4))
           in
           [| Printf.sprintf "bind %d %s" id f; Printf.sprintf "unbind %d %s" id f |]))
