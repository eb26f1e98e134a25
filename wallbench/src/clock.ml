(* Monotonic wall clock in nanoseconds, read without allocating.

   The stub comes from bechamel's monotonic_clock library
   (clock_gettime(CLOCK_MONOTONIC)); declaring the external here with
   an unboxed result keeps every read allocation-free, which the
   load generator's per-packet loop relies on. *)

external now_raw : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now_ns () = Int64.to_int (now_raw ())
