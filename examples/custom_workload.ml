(* Defining your own workload.

   Downstream users are not limited to the 29 calibrated CPU2017 stand-
   ins: a benchmark is just a {!Sp_workloads.Benchspec.t} — a kernel
   palette, a footprint profile, a phase count and weight skew — and the
   whole pipeline (pinballs, SimPoint, cache/timing simulation) runs on
   it unchanged.

     dune exec examples/custom_workload.exe *)

open Sp_workloads
open Specrepro

let my_benchmark =
  {
    Benchspec.name = "999.mydb_s";
    (* an OLTP-ish flavour: hash-table probes, pointer chasing through
       index nodes, a log-writer stream, and some compute *)
    suite_class = Benchspec.Int_speed;
    planted_phases = 8;
    planted_n90 = 5;
    reduction_hint = 500.0;
    palette =
      Kernel.[ hash_mix; pointer_chase; store_stream; btree_search; alu_mix ];
    footprints = Benchspec.[ Large; Xlarge; Medium; Small ];
    weight_override = None;
    seed = 20260705;
  }

let () =
  Printf.printf "Custom workload: %s (%d planted phases)\n"
    my_benchmark.Benchspec.name my_benchmark.Benchspec.planted_phases;
  List.iter
    (fun (k : Kernel.t) -> Printf.printf "  kernel: %s\n" k.Kernel.name)
    my_benchmark.Benchspec.palette;

  let options =
    {
      Pipeline.default_options with
      slices_scale = 0.25;
      progress = false;
    }
  in
  let r = Pipeline.run_benchmark ~options my_benchmark in
  Printf.printf "\nSimPoint found %d phases; %d cover 90%%\n"
    (Array.length r.Pipeline.selection.points)
    (Pipeline.reduced_count r);
  let show (s : Runstats.run_stats) =
    Printf.printf "  %-18s %10.0f insns  %s  L3 %.1f%%  CPI %.3f\n"
      s.Runstats.label s.Runstats.insns
      (Format.asprintf "%a" Sp_pin.Mix.pp s.Runstats.mix)
      (s.Runstats.l3_miss *. 100.0) s.Runstats.cpi
  in
  show r.Pipeline.whole;
  show (Pipeline.regional r);
  show (Pipeline.warmup_regional r);
  Printf.printf
    "\nmix error %.2f pp; instruction reduction %.0fx — your workload, the \
     paper's pipeline.\n"
    (Runstats.mix_error_pp ~reference:r.Pipeline.whole (Pipeline.regional r))
    (r.Pipeline.whole.Runstats.insns /. (Pipeline.regional r).Runstats.insns)
