open Sp_isa
open Sp_vm

type t = { counts : int array (* indexed by mem_class code *) }

(* Per-kind memory class: the static classification the segment
   counting below reproduces dynamically. *)
let class_of_kind =
  Array.init Isa.num_kinds (fun code ->
      match Isa.kind_of_code code with
      | K_load -> Isa.mem_class_code Mem_r
      | K_store -> Isa.mem_class_code Mem_w
      | K_movs -> Isa.mem_class_code Mem_rw
      | K_alu | K_mul | K_div | K_falu | K_fmul | K_fdiv | K_branch | K_jump
      | K_sys | K_halt ->
          Isa.mem_class_code No_mem)

let class_code_of_kind code = class_of_kind.(code)

let create () = { counts = Array.make 4 0 }

(* Classify an [on_block_mems] segment from its references alone:
   only [Movs] makes two (a read, then a write at the same offset),
   loads make one read, stores one write — so the references name each
   memory instruction's class and the rest of the segment is NO_MEM.
   Class codes: NO_MEM 0, MEM_R 1, MEM_W 2, MEM_RW 3. *)
let hooks t =
  let counts = t.counts in
  {
    Hooks.nil with
    on_block_mems =
      (fun _pc0 n offs addrs nrefs ->
        let r = ref 0 and memops = ref 0 in
        while !r < nrefs do
          let i = !r in
          let cls =
            if i + 1 < nrefs && offs.(i + 1) = offs.(i) then 3
            else 1 + (addrs.(i) land 1)
          in
          counts.(cls) <- counts.(cls) + 1;
          incr memops;
          r := if cls = 3 then i + 2 else i + 1
        done;
        counts.(0) <- counts.(0) + n - !memops);
  }

let count t cls = t.counts.(Isa.mem_class_code cls)

let total t = Array.fold_left ( + ) 0 t.counts

let mix t =
  Mix.of_counts ~no_mem:t.counts.(0) ~mem_r:t.counts.(1) ~mem_w:t.counts.(2)
    ~mem_rw:t.counts.(3)

