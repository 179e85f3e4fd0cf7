(* Clock, sample buffers and order statistics. *)

(* Monotonic time in seconds (CLOCK_MONOTONIC, ns resolution). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 1024 0.0; n = 0 }

let add b x =
  if b.n = Array.length b.a then begin
    let a' = Array.make (2 * b.n) 0.0 in
    Array.blit b.a 0 a' 0 b.n;
    b.a <- a'
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let count b = b.n

let sorted b =
  let s = Array.sub b.a 0 b.n in
  Array.sort compare s;
  s

(* Nearest-rank percentile of a sorted array; 0 on no samples. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then 0.0
  else
    let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (r - 1)))

let percentile b p = pct (sorted b) p
let median b = percentile b 50.0

let mean b =
  if b.n = 0 then 0.0
  else begin
    let s = ref 0.0 in
    for i = 0 to b.n - 1 do
      s := !s +. b.a.(i)
    done;
    !s /. float_of_int b.n
  end

let percentile_of xs p =
  let b = buf () in
  List.iter (add b) xs;
  percentile b p

let median_of xs = percentile_of xs 50.0
