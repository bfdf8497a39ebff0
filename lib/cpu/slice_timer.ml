open Sp_vm

type t = {
  slice_len : int;
  core : Interval_core.t;
  mutable count : int;  (* instructions retired in the open slice *)
  mutable last_cycles : float;
  mutable cpis : float list;  (* reversed *)
}

let create ~slice_len core =
  if slice_len <= 0 then invalid_arg "Slice_timer.create";
  { slice_len; core; count = 0; last_cycles = 0.0; cpis = [] }

let close t len =
  let c = Interval_core.cycles t.core in
  t.cpis <- ((c -. t.last_cycles) /. float_of_int len) :: t.cpis;
  t.last_cycles <- c;
  t.count <- 0

(* Execution is resumable at any instruction, so every slice boundary is
   a fuel boundary: when a slice closes, the core has retired exactly
   the slice's instructions and charged all of their cycles, and the
   hook set stays block-level. *)
let run ?(tools = []) ?syscall ?(fuel = max_int) t (prog : Program.t) m =
  let hooks = Hooks.seq_all (tools @ [ Interval_core.hooks t.core ]) in
  let rec go fuel =
    let before = m.Interp.icount in
    let chunk = min fuel (t.slice_len - t.count) in
    let status = Interp.run ~hooks ?syscall ~fuel:chunk prog m in
    let len = m.Interp.icount - before in
    t.count <- t.count + len;
    if t.count = t.slice_len then close t t.slice_len;
    match status with
    | Interp.Out_of_fuel when fuel > len -> go (fuel - len)
    | status -> status
  in
  go fuel

let finish t =
  if t.count > 0 && t.count >= t.slice_len / 2 then close t t.count

let slice_cpis t = Array.of_list (List.rev t.cpis)
