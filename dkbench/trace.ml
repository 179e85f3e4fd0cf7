(* In-memory spans: name, start, end, parent span, request id.  Written
   out once, at the end of a traced run.  A span's self time is its
   duration minus the durations of its direct children. *)

type t = {
  mutable names : string array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable req : int array;
  mutable n : int;
  mutable cur : int;  (* innermost open span, -1 at top level *)
}

let create () =
  let c = 4096 in
  {
    names = Array.make c "";
    start = Array.make c 0.0;
    stop = Array.make c 0.0;
    parent = Array.make c (-1);
    req = Array.make c 0;
    n = 0;
    cur = -1;
  }

let grow t =
  let c = 2 * Array.length t.names in
  let ext a fill =
    let a' = Array.make c fill in
    Array.blit a 0 a' 0 t.n;
    a'
  in
  t.names <- ext t.names "";
  t.start <- ext t.start 0.0;
  t.stop <- ext t.stop 0.0;
  t.parent <- ext t.parent (-1);
  t.req <- ext t.req 0

(* Run [f] as a span nested in the innermost open one. *)
let span t name ~req f =
  if t.n = Array.length t.names then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.names.(id) <- name;
  t.parent.(id) <- t.cur;
  t.req.(id) <- req;
  t.cur <- id;
  t.start.(id) <- Stat.now ();
  let finish () =
    t.stop.(id) <- Stat.now ();
    t.cur <- t.parent.(id)
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* Record a span measured elsewhere (client send -> reply). *)
let record t name ~req ~start ~stop =
  if t.n = Array.length t.names then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.names.(id) <- name;
  t.parent.(id) <- t.cur;
  t.req.(id) <- req;
  t.start.(id) <- start;
  t.stop.(id) <- stop

(* Per name: (calls, total self time in seconds, total duration). *)
let self_times t =
  let child = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.stop.(i) -. t.start.(i))
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) -. t.start.(i) in
    let c, s, dd = Option.value (Hashtbl.find_opt tbl t.names.(i)) ~default:(0, 0.0, 0.0) in
    Hashtbl.replace tbl t.names.(i) (c + 1, s +. d -. child.(i), dd +. d)
  done;
  tbl

(* Mean self time per call, in microseconds (0 when never called). *)
let mean_self_us tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (c, s, _) when c > 0 -> s /. float_of_int c *. 1e6
  | _ -> 0.0

let calls tbl name = match Hashtbl.find_opt tbl name with Some (c, _, _) -> c | None -> 0

let mean_dur_us tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (c, _, d) when c > 0 -> d /. float_of_int c *. 1e6
  | _ -> 0.0

let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\treq\tname\tstart_s\tend_s\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\n" i t.parent.(i) t.req.(i) t.names.(i)
          t.start.(i) t.stop.(i)
      done)
