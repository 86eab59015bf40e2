(* Order statistics of the benchmark's latency samples. *)

let quantile samples q = Insp.Stats.percentile (100.0 *. q) samples
let median samples = quantile samples 0.5

(* Tail percentiles the benchmark may report, in per mille, highest
   first.  A percentile is eligible when at least ten samples lie beyond
   it: [n * (1000 - pm) / 1000 >= 10], kept in integers so that p99 is
   eligible at exactly 1000 samples. *)
let ladder = [ 990; 900; 500 ]

let tail_permille n = List.find_opt (fun pm -> n * (1000 - pm) >= 10_000) ladder

(* The highest eligible percentile and its value.  Below 20 samples no
   percentile qualifies and the median stands in for the tail. *)
let tail samples =
  let pm = Option.value (tail_permille (List.length samples)) ~default:500 in
  (pm, Insp.Stats.percentile (float_of_int pm /. 10.0) samples)
