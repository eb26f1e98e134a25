(* Correctness checks of one run.  Every check compares the program's
   output with something computed independently of it: the linear
   reference LPM, the load generator's own per-packet accounting, or
   another set of the program's totals that must agree with the first. *)

module Drop_reason = Rp_obs.Drop_reason
module Session = Rp_session.Session

type result = { name : string; ok : bool; detail : string }

let check name ok detail = { name; ok; detail }

(* Expected egress of every destination, from a linear scan of the
   installed routes by the rp_lpm reference engine. *)
let reference_egress (g : Gen.t) =
  let table = { Rp_lpm.Linear.entries = Array.to_list g.Gen.routes } in
  Array.map
    (fun dst -> match Rp_lpm.Linear.lookup table dst with Some (_, iface) -> iface | None -> -1)
    g.Gen.dsts

let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name)

(* Program-side totals that the checks compare against; read before
   the bed is built and again after the run. *)
type baseline = {
  reasons : int array;
  accounted_packets : int;
  accounted_bytes : int;
  exported_packets : int;
  exported_bytes : int;
}

let baseline () =
  {
    reasons = Array.map Drop_reason.get Loadgen.reasons;
    accounted_packets = counter "flow_table.accounted_packets";
    accounted_bytes = counter "flow_table.accounted_bytes";
    exported_packets = counter "flow_export.packets";
    exported_bytes = counter "flow_export.bytes";
  }

let egress (d : Loadgen.t) =
  check "egress = reference LPM" (d.Loadgen.egress_mismatch = 0 && d.Loadgen.forwarded > 0)
    (Printf.sprintf "%d forwarded, %d on the wrong interface" d.Loadgen.forwarded
       d.Loadgen.egress_mismatch)

(* offered = forwarded + absorbed + drops by reason + losses, and the
   program's drop-reason counters saw the same drops. *)
let accounting (d : Loadgen.t) (b0 : baseline) =
  let drops = Array.fold_left ( + ) 0 d.Loadgen.drops in
  let accounted =
    d.Loadgen.forwarded + d.Loadgen.absorbed + drops + d.Loadgen.refused + d.Loadgen.link_drops
    + d.Loadgen.pool_exhausted
  in
  let mismatched =
    Array.to_list Loadgen.reasons
    |> List.mapi (fun i r ->
        let program = Drop_reason.get r - b0.reasons.(i) in
        let ours =
          match r with
          | Drop_reason.Backpressure -> d.Loadgen.refused
          | Drop_reason.Link_overflow -> d.Loadgen.link_drops
          | Drop_reason.Pool_exhausted -> d.Loadgen.pool_exhausted
          | _ -> d.Loadgen.drops.(i)
        in
        if program <> ours then
          Some (Printf.sprintf "%s: program %d, load generator %d" (Drop_reason.name r) program ours)
        else None)
    |> List.filter_map Fun.id
  in
  let link_ok = Rp_pkt.Link.txdrops d.Loadgen.bed.Bed.link = d.Loadgen.link_drops in
  check "offered = accounted, by drop reason"
    (accounted = d.Loadgen.offered && d.Loadgen.in_flight = 0 && mismatched = [] && link_ok)
    (Printf.sprintf "offered %d, accounted %d (fwd %d, absorbed %d, drops %d, refused %d, link %d, pool %d)%s"
       d.Loadgen.offered accounted d.Loadgen.forwarded d.Loadgen.absorbed drops d.Loadgen.refused
       d.Loadgen.link_drops d.Loadgen.pool_exhausted
       (if mismatched = [] then "" else "; " ^ String.concat ", " mismatched))

(* After every flow record was exported (Engine.flush_flows), the
   exported totals equal what the flow tables accounted. *)
let flow_export (b0 : baseline) =
  let ap = counter "flow_table.accounted_packets" - b0.accounted_packets
  and ab = counter "flow_table.accounted_bytes" - b0.accounted_bytes
  and ep = counter "flow_export.packets" - b0.exported_packets
  and eb = counter "flow_export.bytes" - b0.exported_bytes in
  check "flow_export = accounted" (ap = ep && ab = eb && ap > 0)
    (Printf.sprintf "packets %d/%d, bytes %d/%d" ep ap eb ab)

let sessions (bed : Bed.t) =
  match bed.Bed.sessions with
  | None -> check "sessions created - expired = live" true "no session table"
  | Some s ->
    let st = Session.Table.stats s in
    check "sessions created - expired = live"
      (st.Session.Table.created - st.Session.Table.expired = st.Session.Table.live)
      (Printf.sprintf "created %d, expired %d, live %d" st.Session.Table.created
         st.Session.Table.expired st.Session.Table.live)

let updates (d : Loadgen.t) =
  match d.Loadgen.updates with
  | None -> check "control updates applied" true "no updates"
  | Some u ->
    check "control updates applied" (u.Loadgen.errors = 0 && u.Loadgen.n > 0)
      (Printf.sprintf "%d issued, %d synced, %d failed" u.Loadgen.next u.Loadgen.n u.Loadgen.errors)

let settled ok = check "every packet returned" ok (if ok then "" else "engine stopped returning results")
