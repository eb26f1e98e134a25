(* Seeded inputs of one run, generated before anything is timed.

   The route table is BGP-like: mostly /24s, a band of /17../23 and a
   few shorter aggregates, spread over four egress interfaces.  Flow
   destinations are host addresses drawn inside installed prefixes
   (so every packet has a route, and lookups spread across the whole
   table); the expected egress of each destination is computed
   separately against the linear reference engine.  The packet trace
   is an int array — flow id and length packed per packet — so the
   load generator replays it without allocating. *)

open Rp_pkt

let len_bits = 11
let[@inline] flow_of e = e lsr len_bits
let[@inline] len_of e = e land ((1 lsl len_bits) - 1)

type t = {
  routes : (Prefix.t * int) array;  (** installed prefix, egress iface *)
  dsts : Ipaddr.t array;
  keys : Flow_key.t array;  (** flow id -> six-tuple *)
  flow_dst : int array;  (** flow id -> index into [dsts] *)
  trace : int array;  (** packet -> [flow lsl len_bits lor length]; power-of-two length *)
  first_packets : int;  (** packets of [trace] that open a flow *)
}

let egress_ifaces = 4

(* First octets left out of the route table: the flows' sources
   (10/8), the prefixes the control-churn updates add and delete
   (100/8), loopback, the inert filters' 172/8, the NAT pool (198/8),
   and multicast and above. *)
let reserved_octet o = o = 0 || o = 10 || o = 100 || o = 127 || o = 172 || o = 198

let v4_of_int x = Ipaddr.v4_of_int32 (Int32.of_int x)

let v4_to_int = function
  | Ipaddr.V4 a -> Int32.to_int a land 0xFFFF_FFFF
  | Ipaddr.V6 _ -> invalid_arg "Gen.v4_to_int"

let gen_routes rng n =
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] in
  while Hashtbl.length seen < n do
    let r = Random.State.int rng 100 in
    let len =
      if r < 55 then 24
      else if r < 85 then 17 + Random.State.int rng 7
      else if r < 93 then 16
      else 8 + Random.State.int rng 8
    in
    let o = 1 + Random.State.int rng 223 in
    if not (reserved_octet o) then begin
      let x = (o lsl 24) lor Random.State.int rng (1 lsl 24) in
      let p = Prefix.make (Ipaddr.prefix_bits (v4_of_int x) len) len in
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.add seen p ();
        out := (p, 1 + Random.State.int rng egress_ifaces) :: !out
      end
    end
  done;
  Array.of_list (List.rev !out)

(* A host address inside a randomly chosen installed prefix. *)
let gen_dsts rng routes n =
  Array.init n (fun _ ->
      let p, _ = routes.(Random.State.int rng (Array.length routes)) in
      let host_bits = 32 - p.Prefix.len in
      v4_to_int p.Prefix.addr lor Random.State.int rng (1 lsl host_bits)
      |> v4_of_int)

(* Flow [id]'s source is unique per id: 10.a.b.c with abc = id. *)
let flow_key rng ~id ~dst =
  Flow_key.make
    ~src:(Ipaddr.v4 10 ((id lsr 16) land 0xFF) ((id lsr 8) land 0xFF) (id land 0xFF))
    ~dst ~proto:Proto.udp
    ~sport:(1024 + Random.State.int rng 60000)
    ~dport:(1 + Random.State.int rng 65000)
    ~iface:0

let routes_for rng = gen_routes rng 16_384

(* [flows] long-lived flows, each to its own destination, uniformly
   interleaved; fixed-size packets.  Flow [f]'s source is 10.0.(f/64).(f
   mod 64), so a /28 source filter covers 16 flows. *)
let long_lived ~seed ~flows ~pkt_len ~trace_len =
  let rng = Random.State.make [| seed; 1 |] in
  let routes = routes_for rng in
  let dsts = gen_dsts rng routes flows in
  let keys =
    Array.init flows (fun f ->
        flow_key rng ~id:(((f lsr 6) lsl 8) lor (f land 63)) ~dst:dsts.(f))
  in
  let trace =
    Array.init trace_len (fun _ ->
        (Random.State.int rng flows lsl len_bits) lor pkt_len)
  in
  let seen = Array.make flows false in
  let first = ref 0 in
  Array.iter
    (fun e ->
      let f = flow_of e in
      if not seen.(f) then begin
        seen.(f) <- true;
        incr first
      end)
    trace;
  { routes; dsts; keys; flow_dst = Array.init flows Fun.id; trace; first_packets = !first }

(* Zipf(theta) over ranks 0..n-1: Gray et al.'s rejection-free
   sampler (as in YCSB). *)
let zipf_sampler n theta =
  let zeta m =
    let s = ref 0.0 in
    for i = 1 to m do
      s := !s +. (1.0 /. (float_of_int i ** theta))
    done;
    !s
  in
  let zetan = zeta n and zeta2 = zeta 2 in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta))) /. (1.0 -. (zeta2 /. zetan))
  in
  let half_pow = 0.5 ** theta in
  fun rng ->
    let u = Random.State.float rng 1.0 in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. half_pow then 1
    else
      min (n - 1)
        (int_of_float (float_of_int n *. (((eta *. u) -. eta +. 1.0) ** alpha)))

(* Inverse-CDF Pareto packet budget, at least one packet. *)
let pareto rng ~shape ~scale =
  let u = Float.max 1e-12 (Random.State.float rng 1.0) in
  max 1 (int_of_float (scale /. (u ** (1.0 /. shape))))

(* IMIX: 7 x 64 B, 4 x 594 B, 1 x 1500 B. *)
let imix rng =
  let r = Random.State.int rng 12 in
  if r < 7 then 64 else if r < 11 then 594 else 1500

(* Zipf(theta) popularity over [ranks]; each rank carries one flow at a
   time, and when the flow's Pareto budget runs out a fresh flow (new
   source, new destination) takes the rank over. *)
let churning ~seed ~ranks ~theta ~shape ~scale ~dst_pool ~trace_len =
  let rng = Random.State.make [| seed; 2 |] in
  let routes = routes_for rng in
  let dsts = gen_dsts rng routes dst_pool in
  let draw = zipf_sampler ranks theta in
  let rank_flow = Array.make ranks (-1) and budget = Array.make ranks 0 in
  let keys = ref [] and flow_dst = ref [] and nflows = ref 0 in
  let first = ref 0 in
  let trace =
    Array.init trace_len (fun _ ->
        let r = draw rng in
        if budget.(r) = 0 then begin
          let id = !nflows in
          incr nflows;
          incr first;
          let d = Random.State.int rng dst_pool in
          keys := flow_key rng ~id ~dst:dsts.(d) :: !keys;
          flow_dst := d :: !flow_dst;
          rank_flow.(r) <- id;
          budget.(r) <- pareto rng ~shape ~scale
        end;
        budget.(r) <- budget.(r) - 1;
        (rank_flow.(r) lsl len_bits) lor imix rng)
  in
  {
    routes;
    dsts;
    keys = Array.of_list (List.rev !keys);
    flow_dst = Array.of_list (List.rev !flow_dst);
    trace;
    first_packets = !first;
  }
