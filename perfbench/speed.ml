(* Host speed.  Other tenants of a shared host move its speed by a
   quarter or more, on a scale of seconds to minutes, and the time of one
   call follows.  A fixed kernel that does not touch the library is timed
   between the benchmark's timed pieces of work; each piece's time is
   then scaled by [reference_s] over the mean kernel time before and
   after it.  A scaled time reads as the time at the speed at which the
   kernel takes [reference_s], so a change to the library moves it and a
   slow minute of the host mostly does not.

   There are two kernels, matched to the working set of the workload
   they scale.  [Small] builds small maps: allocation that stays in the
   cache, like [serve_churn] and [des_validate], whose heaps stay near
   3 MB.  [Large] builds and sums lists of 100k boxed floats (allocation
   promoted to the major heap) and walks a random cycle through a
   32 MiB array (memory latency), like [solve_100k] and its 100 MB heap.
   Seven candidate parts were timed between the rounds of each workload
   for several minutes: these followed their workloads when the host
   slowed down, where the other kernel's parts followed less or not at
   all.

   The kernels run in a helper process forked at first use, while the
   benchmark's heap is still small.  Their allocations therefore land in
   the helper's own heap: they neither raise [heap_peak_mb] nor pay for
   the library's GC, and the library's heap does not change the
   kernels' times.  The benchmark waits while the helper runs, so the two
   never compete for a CPU. *)

module Imap = Map.Make (Int)

let chase_len = 1 lsl 22

(* One random cycle through every slot (Sattolo's algorithm), drawn
   from a fixed seed. *)
let chase_table () =
  let t = Array.init chase_len Fun.id in
  let st = ref 12345 in
  for i = chase_len - 1 downto 1 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let j = !st mod i in
    let x = t.(i) in
    t.(i) <- t.(j);
    t.(j) <- x
  done;
  t

type kernel = Small | Large

let small () =
  let acc = ref 0 in
  for round = 1 to 80 do
    let m = ref Imap.empty in
    for i = 0 to 2_000 do
      m := Imap.add ((i * 7919 * round) land 0xfffff) i !m
    done;
    acc := !acc + Imap.cardinal !m
  done;
  !acc

let large chase =
  let acc = ref 0 in
  for _ = 1 to 3 do
    let l = ref [] in
    for i = 0 to 100_000 do
      l := (float_of_int i *. 1.5) :: !l
    done;
    acc := !acc + int_of_float (List.fold_left ( +. ) 0.0 !l)
  done;
  let j = ref 0 in
  for _ = 1 to 35_000 do
    j := chase.(!j)
  done;
  !acc + !j

(* About each kernel's median time on the reference host (2 vCPUs of a
   shared Xeon at 2.1 GHz).  Any fixed value would do: it only sets the
   speed the scaled times refer to. *)
let reference_s = function Small -> 0.038 | Large -> 0.035

(* The helper: for every request byte read from [req] (['s'] or ['l']),
   the median time of three runs of that kernel, so that one disturbed
   run does not count, answered on [rep] as 8 bytes (the float's bits).
   End of input ends it; [_exit] skips the benchmark's [at_exit]
   handlers and buffers. *)
let helper req rep =
  let chase = lazy (chase_table ()) in
  let byte = Bytes.create 1 and answer = Bytes.create 8 in
  let sink = ref 0 in
  let code =
    try
      while Unix.read req byte 0 1 = 1 do
        let kernel =
          if Bytes.get byte 0 = 'l' then
            let chase = Lazy.force chase in
            fun () -> large chase
          else small
        in
        let run () =
          let t0 = Unix.gettimeofday () in
          sink := !sink + kernel ();
          Unix.gettimeofday () -. t0
        in
        let dt = Pct.median (List.init 3 (fun _ -> run ())) in
        Bytes.set_int64_le answer 0 (Int64.bits_of_float dt);
        if Unix.write rep answer 0 8 <> 8 then failwith "short write"
      done;
      (* Reading [sink] keeps the kernels' results, so the compiler
         cannot drop them. *)
      if !sink = min_int then 3 else 0
    with _ -> 2
  in
  Unix._exit code

type helper = { pid : int; req : Unix.file_descr; rep : Unix.file_descr }

let running = ref None

(* Ends the helper and waits for it; safe to call more than once. *)
let stop () =
  match !running with
  | None -> ()
  | Some h ->
    running := None;
    Unix.close h.req;
    Unix.close h.rep;
    ignore (Unix.waitpid [] h.pid)

let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rep_r;
    helper req_r rep_w
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    let h = { pid; req = req_w; rep = rep_r } in
    running := Some h;
    at_exit stop;
    h

let rec read_exactly fd buf off =
  if off < Bytes.length buf then
    match Unix.read fd buf off (Bytes.length buf - off) with
    | 0 -> failwith "Speed: the kernel helper ended"
    | n -> read_exactly fd buf (off + n)

(* The time of [kernel], in seconds. *)
let kernel_s kernel =
  let h = match !running with Some h -> h | None -> start () in
  let request = match kernel with Small -> "s" | Large -> "l" in
  if Unix.write_substring h.req request 0 1 <> 1 then
    failwith "Speed: cannot reach the kernel helper";
  let answer = Bytes.create 8 in
  read_exactly h.rep answer 0;
  Int64.float_of_bits (Bytes.get_int64_le answer 0)

(* The last kernel timing, with the kernel it timed. *)
let last = ref None

(* [scaled ~kernel f] runs [f] between two timings of [kernel] (the one
   before is shared with the previous call's) and returns its result
   with the factor that scales the times measured inside it. *)
let scaled ~kernel f =
  let before =
    match !last with
    | Some (k, s) when k = kernel -> s
    | _ -> kernel_s kernel
  in
  let r = f () in
  let after = kernel_s kernel in
  last := Some (kernel, after);
  (r, reference_s kernel /. ((before +. after) /. 2.0))
