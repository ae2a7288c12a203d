(** Confidence intervals over independent replications.

    The paper reports each point as the mean of five independent simulation
    runs with 95% confidence intervals (§6.1); this module reproduces that
    reduction using the Student t distribution for small sample counts. *)

type interval = {
  mean : float;
  half_width : float;  (** half-width of the confidence interval *)
  n : int;
}

(** [t_critical ~df] is the two-sided 97.5% Student-t quantile for [df]
    degrees of freedom (95% confidence): tabulated through [df = 40],
    linearly interpolated between standard anchors through [df = 120], then
    decaying smoothly toward the normal 1.96. Strictly decreasing in [df] —
    no cliff at the table edge. @raise Invalid_argument for [df < 1]. *)
val t_critical : df:int -> float

(** [of_samples xs] is the 95% confidence interval of the mean of [xs].
    A single sample yields a zero-width interval. @raise Invalid_argument on
    an empty list. *)
val of_samples : float list -> interval
