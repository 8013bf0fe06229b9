from .bgam import BgamBank, BgamState, bgam_act, bgam_configure, bgam_update
from .exp3 import (exp3_probs, exp3_update, lbwi_sample_action,
                   lipschitz_estimate, phase2_intervals, redistribute_weights)
from .lbwi import LbwiBank, LbwiLearner, lbwi_step
from .llr import LlrBank, LlrState, hungarian_match, llr_ucb_weights
from .baselines import (BrBank, GpBank, GpState, RsBank, best_response,
                        br_profile, golden_max, gp_step)
