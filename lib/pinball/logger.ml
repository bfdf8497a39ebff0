open Sp_vm

type whole = { pinball : Pinball.t; total_insns : int }

let log_whole ?(syscall = Interp.default_syscall) ?(extra_tools = [])
    ~benchmark (prog : Program.t) =
  let machine = Interp.create ~entry:prog.entry () in
  let initial = Snapshot.capture machine in
  let recorded = ref [] in
  let recording_syscall n =
    let v = syscall n in
    (* the syscall retires as the current instruction: icount was already
       incremented when the hook fired, so the consuming instruction's
       index is icount - 1.  Every interpreter tier upholds this — the
       compiled tier bulk-advances icount per chain but rolls it back
       to the exact per-instruction value around syscall dispatch *)
    recorded := (machine.Interp.icount - 1, v) :: !recorded;
    v
  in
  let hooks = Hooks.seq_all extra_tools in
  let status = Interp.run ~hooks ~syscall:recording_syscall prog machine in
  (match status with
  | Interp.Halted -> ()
  | Interp.Out_of_fuel -> assert false);
  let pinball =
    {
      Pinball.benchmark;
      kind = Pinball.Whole;
      program = prog;
      snapshot = initial;
      length = Some machine.Interp.icount;
      syscalls = Array.of_list (List.rev !recorded);
    }
  in
  { pinball; total_insns = machine.Interp.icount }

type warm_region = { warm_prefix : int; warm_pinball : Pinball.t }

let capture_warm_regions ~warmup_insns (w : whole) points =
  if warmup_insns < 0 then
    invalid_arg "Logger.capture_warm_regions: negative warmup";
  let pb = w.pinball in
  let order = Array.init (Array.length points) (fun i -> i) in
  Array.sort
    (fun a b ->
      compare points.(a).Sp_simpoint.Simpoints.start_icount
        points.(b).Sp_simpoint.Simpoints.start_icount)
    order;
  let machine = Snapshot.restore pb.Pinball.snapshot in
  let syscall = Replayer.recorded_syscall pb in
  let out = Array.make (Array.length points) None in
  (* end of the previous region: the warmup prefix is clamped against
     it, so no prefix re-warms instructions a previous point measured
     (0 initially, so a prefix that would fall before program start
     clamps to it) *)
  let prev_end = ref 0 in
  Array.iter
    (fun idx ->
      let p = points.(idx) in
      let start = p.Sp_simpoint.Simpoints.start_icount in
      if start > w.total_insns then
        invalid_arg "Logger.capture_warm_regions: point beyond execution";
      let gap = start - !prev_end in
      if gap < 0 then
        invalid_arg "Logger.capture_warm_regions: overlapping points";
      let wlen = min warmup_insns gap in
      let ff = start - wlen - machine.Interp.icount in
      (* ff >= 0: wlen <= gap puts this snapshot point at or after the
         previous region's end, which is at or after the previous
         snapshot point *)
      if ff > 0 then
        ignore (Interp.run ~syscall ~fuel:ff pb.Pinball.program machine);
      let length = wlen + p.Sp_simpoint.Simpoints.length in
      let region =
        {
          Pinball.benchmark = pb.Pinball.benchmark;
          kind =
            Pinball.Region
              {
                cluster = p.Sp_simpoint.Simpoints.cluster;
                weight = p.Sp_simpoint.Simpoints.weight;
              };
          program = pb.Pinball.program;
          snapshot = Snapshot.capture machine;
          length = Some length;
          syscalls =
            Pinball.syscalls_in_range pb ~start:(start - wlen) ~len:length;
        }
      in
      out.(idx) <- Some { warm_prefix = wlen; warm_pinball = region };
      prev_end := start + p.Sp_simpoint.Simpoints.length)
    order;
  Array.map (function Some r -> r | None -> assert false) out
