open Sp_vm

exception Divergence of string

type result = {
  status : Interp.status;
  retired : int;
  machine : Interp.machine;
}

let recorded_syscall (pb : Pinball.t) =
  let idx = ref 0 in
  fun (_channel : int) ->
    if !idx >= Array.length pb.syscalls then
      raise
        (Divergence
           (Printf.sprintf "%s: replay consumed more inputs than recorded"
              (Pinball.describe pb)))
    else begin
      let _, v = pb.syscalls.(!idx) in
      incr idx;
      v
    end

let replay ?(tools = []) (pb : Pinball.t) =
  let machine = Snapshot.restore pb.snapshot in
  let hooks = Hooks.seq_all tools in
  let syscall = recorded_syscall pb in
  let before = machine.Interp.icount in
  let status =
    match pb.length with
    | Some l -> Interp.run ~hooks ~syscall ~fuel:l pb.program machine
    | None -> Interp.run ~hooks ~syscall pb.program machine
  in
  (match (status, pb.length) with
  | Interp.Halted, Some l ->
      (* a region must not halt early: that would mean the recorded
         interval ran past program end *)
      if machine.Interp.icount - before < l then
        raise
          (Divergence
             (Printf.sprintf "%s: halted after %d of %d instructions"
                (Pinball.describe pb)
                (machine.Interp.icount - before)
                l))
  | _ -> ());
  { status; retired = machine.Interp.icount - before; machine }

let replay_prefixed ?(prefix_tools = []) ?(tools = []) ~prefix ?on_region
    (pb : Pinball.t) =
  if prefix < 0 then invalid_arg "Replayer.replay_prefixed: negative prefix";
  let length =
    match pb.length with
    | Some l when l >= prefix -> l
    | Some l ->
        invalid_arg
          (Printf.sprintf
             "Replayer.replay_prefixed: prefix %d exceeds pinball length %d"
             prefix l)
    | None -> invalid_arg "Replayer.replay_prefixed: pinball has no length"
  in
  let machine = Snapshot.restore pb.snapshot in
  (* one stateful input cursor across both runs: a recorded input that
     falls inside the warmup prefix is consumed there, exactly as the
     shared forward scan consumed it in passing *)
  let syscall = recorded_syscall pb in
  if prefix > 0 then begin
    let before = machine.Interp.icount in
    let status =
      Interp.run
        ~hooks:(Hooks.seq_all prefix_tools)
        ~syscall ~fuel:prefix pb.program machine
    in
    match status with
    | Interp.Out_of_fuel -> ()
    | Interp.Halted ->
        if machine.Interp.icount - before < prefix then
          raise
            (Divergence
               (Printf.sprintf
                  "%s: halted after %d of %d warmup-prefix instructions"
                  (Pinball.describe pb)
                  (machine.Interp.icount - before)
                  prefix))
  end;
  (match on_region with Some f -> f () | None -> ());
  let region_len = length - prefix in
  let before = machine.Interp.icount in
  let status =
    Interp.run ~hooks:(Hooks.seq_all tools) ~syscall ~fuel:region_len
      pb.program machine
  in
  (match status with
  | Interp.Halted when machine.Interp.icount - before < region_len ->
      raise
        (Divergence
           (Printf.sprintf "%s: halted after %d of %d region instructions"
              (Pinball.describe pb)
              (machine.Interp.icount - before)
              region_len))
  | _ -> ());
  { status; retired = machine.Interp.icount - before; machine }
