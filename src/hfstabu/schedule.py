"""List-scheduling decoder: permutation -> feasible schedule -> makespan.

Decoding rule. Stage 0 dispatches jobs in permutation order. Every later
stage dispatches jobs in nondecreasing order of their ready time (the
completion time at the previous stage), breaking ties by permutation
position. A task needing q processors starts at the earliest time
t >= ready at which q processors are simultaneously free, taking the q
processors with the smallest availability times; equal availability is
broken by the lowest processor index. No backfilling: a task is never
placed before an earlier-dispatched one releases enough capacity.

The decoder is a pure function of (instance, permutation), so schedules
are reproducible bit for bit. There are two implementations of it, one
per purpose; the tests hold a third, ``build_schedule``, which reports
the whole schedule, processor ids included, as their reference:

- ``evaluate_makespan`` computes only the makespan of one permutation.
  It keeps each stage's availability times as a sorted multiset. The
  q-th smallest time is where a task of width q can start, and the q
  smallest are replaced by its completion time. This is exact because
  the processors of a stage are identical: which ones a task occupies
  never affects a later start time, only the multiset of their
  availability times does. So it gives the completion times of a
  decoder that picks processors by (availability, index).
- ``insertion_decoder`` computes the makespans of an insertion
  neighbourhood, the inner loop of the search. It decodes the
  permutation without the moved job once, with the same sorted
  multisets, and resumes each insertion from the schedule prefix it
  shares with that reference. It stops an insertion once a lower bound
  on its makespan reaches a given bound.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter

from .instance import ProblemInstance


def evaluate_makespan(inst: ProblemInstance, order) -> int:
    """Makespan of the decoded schedule, without building the schedule.

    The caller must supply a valid permutation.

    Between stages a job is the single integer ``ready * n + position``,
    so sorting these keys gives the next stage's dispatch order; stage 0
    starts from each job's position alone. A stage's processors are the
    sorted list of their availability times: a task needing q of them
    starts at max(ready, avail[q - 1]) and replaces the q smallest
    entries with q copies of its completion time.
    """
    n = len(order)
    keys = list(range(n))
    for mi, dur, width in inst.stage_columns:
        avail = [0] * mi
        done_keys = []
        for key in keys:
            ready, p = divmod(key, n)
            j = order[p]
            q = width[j]
            t = avail[q - 1]
            if ready > t:
                t = ready
            t += dur[j]
            del avail[:q]
            at = bisect_right(avail, t)
            avail[at:at] = [t] * q
            done_keys.append(t * n + p)
        done_keys.sort()
        keys = done_keys
    return keys[-1] // n


def insertion_decoder(inst: ProblemInstance, order, from_pos: int):
    """Decoder of every insertion of the job at ``from_pos``, from its removal.

    Decodes the reference ``order`` without that job once, keeping per
    stage its dispatch keys and the availability multiset after each
    step. Returns ``makespan_below(to_pos, bound)``: the makespan of
    ``order`` with the job moved to ``to_pos``, or None once that
    makespan is known to be >= ``bound`` (``math.inf`` for no bound).
    When it returns a number, that number is the exact makespan.

    Keys are ``ready * 2n + slot``: the reference job of rank r has slot
    2r + 1 and the moved job slot 2 * to_pos, so slot order is position
    order in the candidate and reference keys do not depend on to_pos.
    A candidate resumes each stage from the longest dispatch prefix it
    provably shares with the reference: the same tasks in the same order
    with the same ready times leave the same availability multiset.
    Stage 0 shares to_pos steps. Stage i > 0 shares min(A, B) steps: A
    is the longest prefix of the reference's dispatch order whose jobs
    all lie in the shared prefix of stage i - 1, B the number of
    reference keys below the smallest key the candidate recomputed at
    stage i - 1. Every recomputed task's completion time plus its job's
    work at later stages (``ProblemInstance.stage_tails``) bounds the
    makespan from below; the candidate stops once that reaches ``bound``.
    """
    n = len(order)
    width = 2 * n
    rest = list(order)
    job = rest.pop(from_pos)
    by_slot = [job] * width
    by_slot[1:width - 1:2] = rest
    pick = itemgetter(*by_slot)

    stages = []
    keys = list(range(1, width - 1, 2))
    done = reach = None
    for (mi, dur, wid), tail in zip(inst.stage_columns, inst.stage_tails):
        if done is not None:
            by_rank = sorted(range(n - 1), key=done.__getitem__)
            keys = [done[d] for d in by_rank]
            reach = list(accumulate(by_rank, max))
        dur_s, wid_s, tail_s = pick(dur), pick(wid), pick(tail)
        avail = [0] * mi
        after = [avail]
        done = []
        for key in keys:
            ready, slot = divmod(key, width)
            q = wid_s[slot]
            t = avail[q - 1]
            if ready > t:
                t = ready
            t += dur_s[slot]
            avail = avail[q:]
            at = bisect_right(avail, t)
            avail[at:at] = [t] * q
            after.append(avail)
            done.append(t * width + slot)
        stages.append((keys, reach, after, done, dur_s, wid_s, tail_s))
    first_keys = stages[0][0]
    peak = list(accumulate(done, max, initial=0))

    def makespan_below(to_pos: int, bound) -> int | None:
        shared = to_pos
        redone = [2 * to_pos, *first_keys[to_pos:]]
        prev_done = None
        for ref_keys, reach, after, ref_done, dur_s, wid_s, tail_s in stages:
            if prev_done is not None:
                lowest = min(redone)
                redone = prev_done[:shared] + redone
                redone.sort()
                shared = min(bisect_left(reach, shared), bisect_left(ref_keys, lowest))
                del redone[:shared]
            avail = after[shared].copy()
            keys, redone = redone, []
            for key in keys:
                ready, slot = divmod(key, width)
                q = wid_s[slot]
                t = avail[q - 1]
                if ready > t:
                    t = ready
                t += dur_s[slot]
                if t + tail_s[slot] >= bound:
                    return None
                del avail[:q]
                at = bisect_right(avail, t)
                avail[at:at] = [t] * q
                redone.append(t * width + slot)
            prev_done = ref_done
        return max(peak[shared], max(redone)) // width

    return makespan_below
