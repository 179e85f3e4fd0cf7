(* GC activity of a server process, read from outside through its
   runtime_events ring (the server runs with OCAML_RUNTIME_EVENTS_START
   set, ring files in [dir]).  Pauses are the top-level minor
   collections and major slices of every domain. *)

module RE = Runtime_events

type t = {
  dir : string;
  mutable cursor : (int * RE.cursor) option;  (* server pid, cursor *)
  open_at : (int, int64) Hashtbl.t;  (* ring * phase tag -> begin ts *)
  pauses_us : Stat.buf;
  mutable minors : int;
  mutable major_ns : int64;
  mutable last_poll : float;
}

let create dir =
  { dir; cursor = None; open_at = Hashtbl.create 16; pauses_us = Stat.buf (); minors = 0; major_ns = 0L; last_poll = 0.0 }

let tag = function RE.EV_MINOR -> Some 0 | RE.EV_MAJOR_SLICE -> Some 1 | _ -> None

(* Events lost to a ring overflow leave an end without its begin; such
   pauses are skipped. *)
let callbacks t =
  RE.Callbacks.create
    ~runtime_begin:(fun ring ts ph ->
      match tag ph with
      | Some k -> Hashtbl.replace t.open_at ((ring * 2) + k) (RE.Timestamp.to_int64 ts)
      | None -> ())
    ~runtime_end:(fun ring ts ph ->
      match tag ph with
      | Some k -> (
        match Hashtbl.find_opt t.open_at ((ring * 2) + k) with
        | Some t0 ->
          Hashtbl.remove t.open_at ((ring * 2) + k);
          let d = Int64.sub (RE.Timestamp.to_int64 ts) t0 in
          Stat.add t.pauses_us (Int64.to_float d /. 1e3);
          if k = 0 then t.minors <- t.minors + 1 else t.major_ns <- Int64.add t.major_ns d
        | None -> ())
      | None -> ())
    ()

let ring_file t pid = Filename.concat t.dir (string_of_int pid ^ ".events")

(* Start following [pid]'s ring.  Call only once the server answers:
   a cursor opened while the runtime is still initialising the ring
   reads a half-written header (and has crashed the reader). *)
let attach t pid =
  t.cursor <- Some (pid, RE.create_cursor (Some (t.dir, pid)));
  Hashtbl.reset t.open_at

let poll t =
  match t.cursor with
  | Some (_, c) -> ignore (RE.read_poll c (callbacks t) None)
  | None -> ()

(* Cheap enough to call on every request; reads the ring every 5 ms. *)
let tick t now =
  if now -. t.last_poll > 0.005 then begin
    t.last_poll <- now;
    poll t
  end

(* Final read, then forget the ring.  A server killed with -9 leaves
   its ring file behind, watched or not. *)
let detach t pid =
  (match t.cursor with
  | Some (p, c) when p = pid ->
    poll t;
    RE.free_cursor c;
    t.cursor <- None
  | _ -> ());
  try Sys.remove (ring_file t pid) with Sys_error _ -> ()
