open Effect
open Effect.Deep

type _ Effect.t += Delay : float -> unit Effect.t

let run eng f =
  match_with f ()
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
          | _ -> None);
    }

let spawn eng f = Engine.after eng ~delay:0. (fun () -> run eng f)
let delay d = perform (Delay d)
