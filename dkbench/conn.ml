(* A minimal blocking dkserve connection.  Unlike [Client] it exposes
   its socket, so one benchmark thread can multiplex several
   connections with [Unix.select] (a closed-loop reader next to an
   open-loop writer), and it never retries: a refused or timed-out
   operation is the benchmark's to count. *)

module Wire = Dkindex_server.Wire
module Obuf = Dkindex_server.Obuf

type t = { fd : Unix.file_descr; out : Obuf.t; mutable next_id : int }

(* Bound on any single reply wait; an expired wait raises
   [Unix_error (EAGAIN, ...)] and counts as a timed-out operation. *)
let reply_timeout_s = 20.0

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.setsockopt_float fd SO_RCVTIMEO reply_timeout_s;
  { fd; out = Obuf.create 256; next_id = 1 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd b off len

let send t req =
  let id = t.next_id in
  t.next_id <- id + 1;
  Obuf.clear t.out;
  Wire.encode_request t.out ~id req;
  write_all t.fd (Obuf.base t.out) 0 (Obuf.length t.out);
  id

let recv t : Wire.response Wire.decoded =
  match Wire.read_frame ~read:(fun b o l -> Unix.read t.fd b o l) () with
  | `Frame payload -> (
    match Wire.decode_response payload with
    | Ok d -> d
    | Error msg -> failwith ("undecodable reply: " ^ msg))
  | `Eof -> failwith "server closed the connection"
  | `Oversized n -> failwith (Printf.sprintf "oversized reply (%d bytes)" n)

let call t req =
  let id = send t req in
  let d = recv t in
  if d.Wire.id <> id then failwith "reply id mismatch";
  d.msg

let hello t =
  match call t (Wire.Hello { version = Wire.version; epoch = 0 }) with
  | Wire.Hello_reply _ -> ()
  | _ -> failwith "unexpected Hello reply"

(* Dial until the server accepts (it binds only once its index is
   built or recovered), giving up when [alive] says the process died
   or [deadline] passes. *)
let rec dial ~port ~alive ~deadline =
  match connect port with
  | t ->
    hello t;
    t
  | exception Unix.Unix_error ((ECONNREFUSED | ECONNRESET), _, _) ->
    if not (alive ()) then failwith "server exited before accepting connections";
    if Unix.gettimeofday () > deadline then failwith "server did not start in time";
    Unix.sleepf 0.001;
    dial ~port ~alive ~deadline

let stats t =
  match call t Wire.Stats with
  | Wire.Stats_reply kvs -> kvs
  | _ -> failwith "unexpected Stats reply"

let stat_int kvs key = try int_of_string (List.assoc key kvs) with Not_found | Failure _ -> 0
