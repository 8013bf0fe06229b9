from .bgam import BgamBank
from .lbwi import LbwiBank, lipschitz_estimate, phase2_intervals
from .llr import LlrBank
from .baselines import BrBank, GpBank, RsBank, br_profile, golden_max
