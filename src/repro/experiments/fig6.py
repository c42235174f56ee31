"""Fig. 6: EECS on dataset #2, where ACF is both best and cheapest.

On the high-resolution "chap" dataset ACF has the highest f_score
*and* the lowest energy cost, so algorithm downgrade cannot save
anything — EECS's savings come entirely from using fewer cameras
(2-3 of 4).  The paper reports ~97% of the baseline's detections at
~70% of its energy.
"""

#: Only ACF (0.315 J/frame at 1024x768) fits this budget; HOG, C4 and
#: LSVM cost 9.86, 5.56 and 25.06 J/frame respectively.
DEFAULT_BUDGET = 1.0
