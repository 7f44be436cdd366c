"""Synthetic THz channel sounding and passive-reflector coverage analysis.

The pipeline mirrors a frequency-sweep channel-sounding campaign end to end:
image-method channel synthesis, system-response calibration, power-delay-
angular profiles with noise elimination, directional/omnidirectional path
loss, angle-dependent additional-reflection-loss fitting, and SNR-based
coverage ratios.
"""
