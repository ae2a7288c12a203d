open Effect
open Effect.Deep

type 'a waker = 'a -> unit

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : ('a waker -> unit) -> 'a Effect.t
  | Get_engine : Engine.t Effect.t

let start eng f x =
  match_with f x
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
            Some
              (fun (k : (a, unit) continuation) ->
                Engine.after eng ~delay:d (fun () -> continue k ()))
          | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                (* The waker must be idempotent: several parties may race to
                   wake the same process (e.g. a timeout and a message). *)
                let fired = ref false in
                let waker v =
                  if not !fired then begin
                    fired := true;
                    Engine.after eng ~delay:0. (fun () -> continue k v)
                  end
                in
                register waker)
          | Get_engine ->
            Some (fun (k : (a, unit) continuation) -> continue k eng)
          | _ -> None);
    }

let spawn_at eng ~delay f = Engine.after eng ~delay (fun () -> start eng f ())
let spawn eng f = spawn_at eng ~delay:0. f
let delay d = perform (Delay d)
let suspend register = perform (Suspend register)

let engine () =
  try perform Get_engine
  with Effect.Unhandled _ -> failwith "Process.engine: not inside a process"

let now () = Engine.now (engine ())
