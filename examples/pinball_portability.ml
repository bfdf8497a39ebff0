(* Pinball portability: the PinPlay property the paper relies on — a
   checkpoint is self-contained, so it can be written to disk, copied
   anywhere, and replayed without the benchmark, its inputs, or the
   machine that recorded it.

     dune exec examples/pinball_portability.exe -- [benchmark] [scale] *)

open Sp_pinball
open Specrepro

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "557.xz_r" in
  let scale =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 0.1
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "specrepro-pinballs" in
  let spec = Sp_workloads.Suite.find bench in
  let built = Sp_workloads.Benchspec.build ~slices_scale:scale spec in
  let prog = built.Sp_workloads.Benchspec.program in

  (* 1. log the whole execution, with BBV profiling piggybacked *)
  let bbv =
    Sp_pin.Bbv_tool.create ~slice_len:built.Sp_workloads.Benchspec.slice_insns prog
  in
  let whole =
    Logger.log_whole ~benchmark:bench ~extra_tools:[ Sp_pin.Bbv_tool.hooks bbv ]
      prog
  in
  Sp_pin.Bbv_tool.finish bbv;
  Printf.printf "Logged whole pinball: %d instructions, %d recorded inputs\n"
    whole.Logger.total_insns
    (Array.length whole.Logger.pinball.Pinball.syscalls);

  (* 2. select simulation points and capture regional pinballs *)
  let sel =
    Sp_simpoint.Simpoints.select
      ~slice_len:built.Sp_workloads.Benchspec.slice_insns
      (Sp_pin.Bbv_tool.slices bbv)
  in
  let regions =
    Array.map
      (fun (wr : Logger.warm_region) -> wr.Logger.warm_pinball)
      (Logger.capture_warm_regions ~warmup_insns:0 whole
         sel.Sp_simpoint.Simpoints.points)
  in
  Printf.printf "Captured %d regional pinballs\n" (Array.length regions);

  (* 3. save them to disk *)
  let paths = Array.map (fun pb -> Store.save ~dir pb) regions in
  let bytes =
    Array.fold_left (fun acc p -> acc + (Unix.stat p).Unix.st_size) 0 paths
  in
  Printf.printf "Stored under %s (%d files, %.1f MB total)\n" dir
    (Array.length paths)
    (float_of_int bytes /. 1048576.0);

  (* 4. a 'different machine': load from disk and replay under tools,
        no benchmark build, no inputs *)
  let mixes =
    Store.list_dir ~dir
    |> List.map (fun path ->
           let pb = Store.load_exn path in
           let mixt = Sp_pin.Ldstmix.create () in
           let r = Replayer.replay ~tools:[ Sp_pin.Ldstmix.hooks mixt ] pb in
           (Pinball.weight pb, Sp_pin.Ldstmix.mix mixt, r.Replayer.retired))
  in
  let weighted =
    Sp_pin.Mix.weighted (List.map (fun (w, m, _) -> (w, m)) mixes)
  in
  let insns = List.fold_left (fun acc (_, _, n) -> acc + n) 0 mixes in
  Printf.printf
    "Replayed from disk: %d instructions across %d regions\n  weighted mix: %s\n"
    insns (List.length mixes)
    (Format.asprintf "%a" Sp_pin.Mix.pp weighted);

  (* compare against the live whole run *)
  let mixt = Sp_pin.Ldstmix.create () in
  ignore (Replayer.replay ~tools:[ Sp_pin.Ldstmix.hooks mixt ] whole.Logger.pinball);
  Printf.printf "  whole-run mix: %s\n"
    (Format.asprintf "%a" Sp_pin.Mix.pp (Sp_pin.Ldstmix.mix mixt));
  Printf.printf "  largest class deviation: %.2f percentage points\n"
    (Sp_pin.Mix.max_abs_error_pp
       ~reference:(Sp_pin.Ldstmix.mix mixt)
       weighted);

  (* tidy up *)
  List.iter Sys.remove (Store.list_dir ~dir);
  ignore (Pipeline.default_options)
