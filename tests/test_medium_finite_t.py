import math
import random
from fractions import Fraction
from operator import mul

import pytest

from relegas import MediumState, derive_point, n_fermi, scalars_at, x_cutoff
from relegas import medium_finite_t
from relegas.kinematics import RegionLabel, classify_region, kinematic_window
from relegas.medium_finite_t import im_scalars, r1, r2, re_scalars
from relegas.numerics import QuadratureResult, integrate_adaptive
from conftest import complex_rel_err, draw_valid_point, per_node, rel_err

# frozen values: (a, b, t, xi) -> (B, D), computed once with the quadrature
# engine at rel_tol = 1e-12 and cross-checked against an independent
# fixed-order Gauss-Legendre evaluation
FROZEN = {
    (0.5, 1.0, 0.05, 1.2): (
        complex(0.00048540996230384415, 0.0007125873909705482),
        complex(0.00021980796602642889, -0.00010583481083890019),
    ),
    (2.0, 1.0, 0.1, 1.5): (
        complex(-6.005104633702473e-05, 0.00011784065398557886),
        complex(0.000156766741185249, -0.0006824298290016675),
    ),
    (0.9, 0.7, 0.3, 0.5): (
        complex(0.00023508973165260147, 0.0),
        complex(-0.00038612821281331516, 0.0),
    ),
    (0.5, 1.0, 0.2, 0.0): (
        complex(7.273863837887996e-06, 1.1287865898865953e-05),
        complex(3.9925420911666035e-06, -1.4144407077480056e-06),
    ),
    (0.3, 0.25, 0.15, 1.1): (
        complex(0.006552564646051559, 0.0),
        complex(-0.009370986010351478, 0.0),
    ),
}

# independent values: (a, b, t, xi) -> (B, D) integrated over the same
# panels in mpmath at 30 and 40 digits by make_finite_t_reference.py
MPMATH_REFERENCE = {
    (0.5, 1.0, 0.001, 1.2): (
        complex(0.00047572708452596496, 0.0006740863980285089),
        complex(0.00019543425619942008, -0.00010488409879402328),
    ),
    (0.5, 1.0, 1.0, 0.0): (
        complex(0.004729832096735794, 0.0025916703466015503),
        complex(0.0030972596409456045, -0.00022165313829036894),
    ),
    (2.0, 1.0, 0.1, 1.5): (
        complex(-6.0051046337024866e-05, 0.00011784065398557884),
        complex(0.0001567667411852494, -0.0006824298290016672),
    ),
    (0.5, 1.0, 0.2, -1.1): (
        complex(0.0005570441207996008, 0.0009254782098884441),
        complex(0.0003482631969134391, -0.00010715543850797154),
    ),
    (0.9, 0.7, 0.3, 0.5): (
        complex(0.0002350897316526014, 0.0),
        complex(-0.0003861282128133153, 0.0),
    ),
}

# independent values at the cells of make_finite_t_reference.edge_cells():
# (a, b, t, xi) -> (B, D) on both sides of each boundary of the gate that
# sends an isolated Fermi edge to the Gauss-Fermi rule, integrated in
# mpmath as MPMATH_REFERENCE is, with panel edges also at |xi| +- k t
EDGE_REFERENCE = {
    (0.0128, 0.0524, 0.00138, 2.2): (
        complex(3.5760421043555803, 0.37630598392557985),
        complex(1.9047166288993704, 0.17170889714042198),
    ),
    (1.211, 0.7028, 0.01, 1.2): (
        complex(0.00024040228835127967, 0.0),
        complex(-0.0008299745052787157, 0.0),
    ),
    (0.5, 0.3, 0.002, 1.032): (
        complex(3.1738932973896754e-05, 0.0),
        complex(-0.0001154082010835696, 0.0),
    ),
    (3.0, 1.0, 0.002, -1.034): (
        complex(-3.2622482325186444e-08, 9.693250867040771e-232),
        complex(4.2529517663803694e-07, -6.412664517001424e-230),
    ),
    (0.5, 0.3, 0.002, 1.0358): (
        complex(3.754131545354018e-05, 0.0),
        complex(-0.000136382456521885, 0.0),
    ),
    (3.0, 1.0, 0.002, -1.0362): (
        complex(-3.591197407291346e-08, 2.9120134916352896e-231),
        complex(4.6826311950505856e-07, -1.9264708864942346e-229),
    ),
    (0.5, 0.3, 0.002, 1.038): (
        complex(4.1049640050191564e-05, 0.0),
        complex(-0.00014904957136832413, 0.0),
    ),
    (3.0, 1.0, 0.002, -1.04): (
        complex(-4.1866802766666286e-08, 1.946941481956688e-230),
        complex(5.460774482400696e-07, -1.2880180993224784e-228),
    ),
    (0.5, 0.3, 0.002, 1.044): (
        complex(5.1145253315396565e-05, 0.0),
        complex(-0.00018544324664215422, 0.0),
    ),
    (0.5, 0.3, 0.01, -1.16): (
        complex(0.00036037176938020083, 0.0),
        complex(-0.001275564298802443, 0.0),
    ),
    (3.0, 1.0, 0.01, 1.17): (
        complex(-4.2957625730670294e-07, 4.602106806003419e-46),
        complex(5.665651415792364e-06, -2.7316318824799796e-44),
    ),
    (0.5, 0.3, 0.01, -1.179): (
        complex(0.000426747444162218, 0.0),
        complex(-0.0015057149961994476, 0.0),
    ),
    (3.0, 1.0, 0.01, 1.181): (
        complex(-4.778600474233445e-07, 1.3825492905168276e-45),
        complex(6.308320491908555e-06, -8.1996798172368275e-44),
    ),
    (0.5, 0.3, 0.01, -1.19): (
        complex(0.00046692199754135494, 0.0),
        complex(-0.0016445392935979521, 0.0),
    ),
    (3.0, 1.0, 0.01, 1.2): (
        complex(-5.673042899529846e-07, 9.255810341692781e-45),
        complex(7.501228763611602e-06, -5.4822193718532676e-43),
    ),
    (0.5, 0.3, 0.01, -1.22): (
        complex(0.0005826736330131282, 0.0),
        complex(-0.00204275743554761, 0.0),
    ),
    (0.5, 1.0, 0.005, 1.1525252316519465): (
        complex(0.0003690164257168275, 0.0004653794254319542),
        complex(0.00011882589871259103, -7.601408875530841e-05),
    ),
    (0.5, 1.0, 0.005, -1.8875252316519462): (
        complex(0.003175649202864561, 0.006053492903914646),
        complex(0.002386943671184392, -0.0005229769306362294),
    ),
    (0.5, 1.0, 0.005, 2.1770252316519465): (
        complex(0.005794830874234728, 0.0077697147667245845),
        complex(0.0037304656768393377, -0.0006081127100421298),
    ),
    (0.5, 1.0, 0.005, -1.1780252316519466): (
        complex(0.00042579024674410014, 0.0005753714221810012),
        complex(0.0001584274197904849, -9.15209628613408e-05),
    ),
    (0.5, 1.0, 0.005, 1.8675252316519464): (
        complex(0.003045796242481682, 0.005827141589555531),
        complex(0.0023011229359432223, -0.000510814676435389),
    ),
    (0.5, 1.0, 0.005, -2.202525231651946): (
        complex(0.006036705878954263, 0.007769714766724591),
        complex(0.0038682820488599653, -0.0006081127100421301),
    ),
    (2.0, 1.0, 0.01, 1.433503419072274): (
        complex(-6.673189474478158e-05, 7.865476116553988e-05),
        complex(0.00024762173180297727, -0.0005320986212871594),
    ),
    (2.0, 1.0, 0.01, -2.536496580927726): (
        complex(0.0003409354556379382, 0.0006810253998395565),
        complex(-0.0017994307409892368, -0.0028797031841353475),
    ),
    (2.0, 1.0, 0.01, 3.115496580927726): (
        complex(0.0008662232686306627, 0.0007723674755503664),
        complex(-0.004294588793997225, -0.0034756536399766476),
    ),
    (2.0, 1.0, 0.01, -1.484503419072274): (
        complex(-7.046345867049314e-05, 0.00010057456392608237),
        complex(0.00022367070847471117, -0.0006406467400293857),
    ),
    (2.0, 1.0, 0.01, 2.4964965809277264): (
        complex(0.00030796216678726125, 0.0006632011550731396),
        complex(-0.0016692239336706576, -0.0027945674047294648),
    ),
    (2.0, 1.0, 0.01, -3.1664965809277263): (
        complex(0.0009066068983458037, 0.0007723674755503666),
        complex(-0.004493740502307524, -0.00347565363997665),
    ),
    (1.05, 0.49352043241019156, 0.01, 1.2): (
        complex(0.00014195758308853233, 0.0),
        complex(-0.0008323604813776139, 0.0),
    ),
    (1.026, 0.4872973343682594, 0.01, -1.2): (
        complex(0.00013674321060476436, 0.0),
        complex(-0.0007878676243815915, 0.0),
    ),
    (1.014, 0.4851482877082158, 0.01, 1.2): (
        complex(0.00013565461441185687, 0.0),
        complex(-0.0007707913673590608, 0.0),
    ),
    (0.99, 0.4820514958542226, 0.01, -1.2): (
        complex(0.00013586913051401116, 0.0),
        complex(-0.000745525074606437, 0.0),
    ),
    (1.175, 0.7016275627421524, 0.01, 1.2): (
        complex(0.00020410215959415108, 0.0),
        complex(-0.0006772510070494905, 0.0),
    ),
    (1.171, 0.7150387965132475, 0.01, -1.2): (
        complex(0.00020318327776779548, 0.0),
        complex(-0.0006427003552453008, 0.0),
    ),
    (1.169, 0.7217881125646952, 0.01, 1.2): (
        complex(0.00020356652208470332, 0.0),
        complex(-0.0006285554027678835, 0.0),
    ),
    (1.165, 0.7351775435677615, 0.01, -1.2): (
        complex(0.00020571330897022825, 0.0),
        complex(-0.0006054134156867458, 0.0),
    ),
    (0.5, 0.00045, 0.01, 1.5): (
        complex(2.766693144255915e-09, 0.0),
        complex(-0.005123503645157308, 0.0),
    ),
    (0.5, 0.000495, 0.01, -1.5): (
        complex(3.3476993321025104e-09, 0.0),
        complex(-0.005123504148315774, 0.0),
    ),
    (0.5, 0.000505, 0.01, 1.5): (
        complex(3.4843263332483462e-09, 0.0),
        complex(-0.00512350426663643, 0.0),
    ),
    (0.5, 0.00055, 0.01, -1.5): (
        complex(4.13296318552704e-09, 0.0),
        complex(-0.005123504828363893, 0.0),
    ),
    (2.5, 0.00225, 0.01, 1.5): (
        complex(-3.571711940165072e-11, 7.290604640692985e-53),
        complex(6.614281952635671e-05, -1.3530823904446955e-46),
    ),
    (2.5, 0.0024749999999999998, 0.01, -1.5): (
        complex(-4.321774362494856e-11, 8.830668260023064e-53),
        complex(6.61428653596754e-05, -1.3550914883130731e-46),
    ),
    (2.5, 0.0025250000000000003, 0.01, 1.5): (
        complex(-4.49815603143918e-11, 9.19327965306415e-53),
        complex(6.614287613765294e-05, -1.3555641995446375e-46),
    ),
    (2.5, 0.0027500000000000003, 0.01, -1.5): (
        complex(-5.33552876808527e-11, 1.091715080007944e-52),
        complex(6.614292730613885e-05, -1.3578097486821567e-46),
    ),
    (0.3, 0.29, 0.1, 2.9): (
        complex(2.091767367167125, 0.0),
        complex(-1.253345839751995, 0.0),
    ),
    (0.3, 0.29, 0.1, -3.1): (
        complex(2.5336075064167027, 0.0),
        complex(-1.4808307831116172, 0.0),
    ),
    (8.0, 1.0, 0.1, 2.9): (
        complex(-1.1910290859777584e-07, 8.119177102398254e-25),
        complex(1.1484825660022012e-05, -2.653744228141827e-22),
    ),
    (8.0, 1.0, 0.1, -3.1): (
        complex(-1.5875266507079355e-07, 5.9993055086774e-24),
        complex(1.5318621823145036e-05, -1.9608664973953413e-21),
    ),
    (0.00400891535286055, 0.024308079052760227, 0.001, 1.2): (
        complex(2.918819265342128, 1.084658756339717),
        complex(1.5036355210286818, 0.5228254485765746),
    ),
    (2.0931556348875984, 0.011308791992980148, 0.01, 1.2): (
        complex(-5.099293285327232e-10, 1.268937254667189e-46),
        complex(2.6204151043700444e-05, -6.804218718130584e-42),
    ),
    (0.05877072466431032, 0.010461530924393218, 0.001, 1.2): (
        complex(0.0017993434861810877, 0.0),
        complex(-0.08405863748991843, 0.0),
    ),
    (0.2930499402342718, 0.006177605492154289, 0.01, 1.2): (
        complex(1.0500178091952926e-06, 0.0),
        complex(-0.0035436314785512765, 0.0),
    ),
    (0.00461043476849449, 0.031244366730840595, 0.001, 1.2): (
        complex(1.7923092286087052, 0.5816213105581385),
        complex(0.9168521176318853, 0.28136017534430874),
    ),
    (1.5109187871997238, 0.174372161088074, 0.01, 1.2): (
        complex(-1.515248078140728e-06, 1.0286992085766378e-14),
        complex(0.00017100416438385984, -1.7808696955269527e-12),
    ),
    (0.013700185664980212, 0.0027136493667390587, 0.001, 1.2): (
        complex(0.041275166150478465, 0.0),
        complex(-1.5523676698914748, 0.0),
    ),
    (0.0011318420957379927, 1.4669683635486117, 0.01, 1.2): (
        complex(5.35271640299178e-05, 1.35067443107309e-31),
        complex(1.8619664846075982e-05, -2.2227062300501782e-31),
    ),
    (0.010069001031792141, 0.32329887866329476, 0.001, 1.2): (
        complex(0.01532561675054864, 0.001112500761780847),
        complex(0.006829114331460216, 0.0004304909778453244),
    ),
    (0.041448928675084366, 0.04544033838709197, 0.01, 1.2): (
        complex(-0.8546604087079108, 5.8840449043223016e-52),
        complex(0.5212600037539894, 4.897801291051044e-53),
    ),
}


# 50-digit values of r1 and r2 from their defining log ratios at single
# nodes: (a, b, x) -> (r1, r2), printed by make_finite_t_reference.py
KERNEL_REFERENCE = {
    (0.00901, 1e-08, 1.02): (7.728304384284835e-09, -4.374511915638174e-07),
    (0.00901, 1e-08, 1.3): (1.9661592651896875e-08, -1.4184278827685267e-06),
    (0.00901, 1e-08, 2.5): (1.466443269747385e-08, -2.0344662454885957e-06),
    (0.986, 1e-08, 1.02): (1.1788019026591834e-07, -6.09725122065095e-08),
    (0.986, 1e-08, 1.3): (4.628909208039004e-08, -3.051512155400966e-08),
    (0.986, 1e-08, 2.5): (1.736546372300237e-08, -2.2015040216787996e-08),
    (3.0, 1e-08, 1.02): (-1.0100885090829584e-09, 1.7171504654410294e-10),
    (3.0, 1e-08, 1.3): (-4.545348215003051e-09, 9.848254465839945e-10),
    (3.0, 1e-08, 2.5): (-3.332782323604248e-08, 1.3886593015017699e-08),
    (0.00901, 1e-06, 1.02): (7.728304292777021e-07, -4.37451191632746e-05),
    (0.00901, 1e-06, 1.3): (1.966159250858707e-06, -0.000141842788514511),
    (0.00901, 1e-06, 2.5): (1.4664432668574128e-06, -0.0002034466252504819),
    (0.986, 1e-06, 1.02): (1.1788019026377744e-05, -6.097251220544008e-06),
    (0.986, 1e-06, 1.3): (4.628909208034187e-06, -3.0515121553989187e-06),
    (0.986, 1e-06, 2.5): (1.7365463723000058e-06, -2.2015040216792693e-06),
    (3.0, 1e-06, 1.02): (-1.0100885090831002e-07, 1.7171504654414618e-08),
    (3.0, 1e-06, 1.3): (-4.54534821500382e-07, 9.848254465842773e-08),
    (3.0, 1e-06, 2.5): (-3.3327823236086787e-06, 1.3886593015039668e-06),
    (0.0005, 0.001, 1.02): (-0.0027446265800954474, -0.8333219930287995),
    (0.0005, 0.001, 2.5): (0.0018640988432153882, -1.2240324347149119),
    (0.0005, 0.001, 10.0): (0.0004033732877167184, -1.105340710072885),
    (0.1, 0.001, 1.02): (0.0007801934036643042, -0.003979373895529531),
    (0.1, 0.001, 2.5): (0.0014687507498409608, -0.018360190601763658),
    (0.1, 0.001, 10.0): (0.0003980343814808374, -0.019902395642781307),
    (2.0, 0.001, 1.02): (-0.00027165508656671515, 6.92720645501282e-05),
    (2.0, 0.001, 2.5): (0.0040734039871003665, -0.002545877138343214),
    (2.0, 0.001, 10.0): (0.0004145780993342399, -0.0010364453293078976),
    (0.0017218508300760416, 0.0017878537522464, 1.02): (-0.00011266744005102669, -0.41507870884558024),
    (0.0017218508300760416, 0.0017878537522464, 1.5): (-0.0006923462998327315, -2.0600950468079597),
    (0.0017218508300760416, 0.0017878537522464, 3.0): (-0.004215380760614005, -4.543390278824077),
    (0.0017218508300760416, 0.0017878537522464, 6.0): (0.0019056485287211556, -4.4426445954897185),
    (0.0017218508300760416, 0.0017878537522464, 20.0): (0.00036988304132814826, -4.007418597654578),
    (0.0017218508300760416, 0.0017878537522464, 40.0): (0.00018028427355054242, -3.9819311163603834),
    (1.5, 1e-06, 1.499997): (-0.50752328615879, 0.253761146176692),
    (1.5, 1e-06, 1.4999993): (-3.461567332293838, 1.7307831692432254),
    (1.5, 1e-06, 1.4999998): (-0.550121497270658, 0.2750602517314201),
    (1.5, 1e-06, 1.5): (1.2919503870002348e-06, -1.1428791885001914e-06),
    (1.5, 1e-06, 1.5000003): (0.8532401153698888, -0.42662055458906856),
    (1.5, 1e-06, 1.50000076): (4.632754770622272, -2.3163778822154586),
    (1.5, 1e-06, 1.500002): (0.7830601731078011, -0.3915305834587568),
    (0.5, 1.0, 1.1): (1.67224339431369, 0.0995171822785551),
    (0.5, 1.0, 1.9): (3.421341993302727, -1.9595413874398584),
    (2.0, 1.0, 1.1): (-1.4801371607669145, 0.5633572550067122),
    (2.0, 1.0, 1.9): (0.6014027539977734, -0.7851186272531777),
    (0.8, 0.3, 1.1): (0.6942649282691614, -0.54000404463565),
    (0.8, 0.3, 1.9): (0.6205658914601443, -0.787408132789022),
    (0.3, 0.25, 1.1): (0.1328222547385469, -0.7307301091390956),
    (0.3, 0.25, 1.9): (0.27768646201899155, -1.7821254498275632),
}

def test_frozen_scalar_values():
    for table in (FROZEN, MPMATH_REFERENCE):
        for (a, b, t, xi), (want_b, want_d) in table.items():
            ms = MediumState(t=t, xi=xi)
            got = scalars_at(a, b, ms, include_vacuum=False)[3]
            assert complex_rel_err(got.B, want_b) < 5e-9
            assert complex_rel_err(got.D, want_d) < 5e-9
            if want_b.imag == 0.0:
                assert got.B.imag == 0.0
                assert got.D.imag == 0.0


def test_fermi_edge_cells_match_the_reference():
    # the cells lie on both sides of each boundary of the Gauss-Fermi gate
    # (mass shell 16-22 t below |xi|, window edges 25-35 t away, region
    # II's complex pair, b/a about 1e-3, the one-term occupation rule);
    # gated or not, Re B and Re D hold 1e-9 relative and Im B and Im D
    # 1e-10 of the larger |Re|
    gated = 0
    for (a, b, t, xi), (want_b, want_d) in EDGE_REFERENCE.items():
        p = derive_point(a, b)
        region = classify_region(p)
        ms = MediumState(t=t, xi=xi)
        gated += _gated(p, ms, region)
        re_b, re_d, im_b, im_d = medium_finite_t._parts(p, ms, region)
        scale = max(abs(want_b.real), abs(want_d.real))
        assert rel_err(re_b, want_b.real) <= 1e-9, (a, b, t, xi)
        assert rel_err(re_d, want_d.real) <= 1e-9, (a, b, t, xi)
        assert abs(im_b - want_b.imag) <= 1e-10 * scale, (a, b, t, xi)
        assert abs(im_d - want_d.imag) <= 1e-10 * scale, (a, b, t, xi)
    assert len(EDGE_REFERENCE) >= 40
    assert 20 <= gated <= len(EDGE_REFERENCE) - 20


def test_sharp_isolated_fermi_edge_is_not_silently_missed():
    # at t = 0.00138 the thermal tail of this region-I cell converged with
    # an error estimate of 2.4e-12 while Re B was 4.5e-8 off; the
    # Gauss-Fermi rule has no tail panel
    a, b, t, xi = key = (0.0128, 0.0524, 0.00138, 2.2)
    want_b, want_d = EDGE_REFERENCE[key]
    p = derive_point(a, b)
    re_b, re_d, _, _ = medium_finite_t._parts(p, MediumState(t=t, xi=xi), classify_region(p))
    assert rel_err(re_b, want_b.real) <= 1e-11
    assert rel_err(re_d, want_d.real) <= 1e-11


def test_gauss_fermi_rule_integrates_odd_powers():
    # the integral of z**k/(e^z + 1) over [0, inf) is (1 - 2**-k) k! zeta(k + 1);
    # the rule's three nodes and weights give it for odd k <= 11, with
    # zeta(2) .. zeta(12) from their closed forms in powers of pi
    zeta = {
        2: math.pi**2 / 6, 4: math.pi**4 / 90, 6: math.pi**6 / 945, 8: math.pi**8 / 9450,
        10: math.pi**10 / 93555, 12: 691 * math.pi**12 / 638512875,
    }
    nodes, weights = medium_finite_t._GF_NODES, medium_finite_t._GF_WEIGHTS
    assert len(nodes) == len(weights) == 3
    for k in range(1, 12, 2):
        want = (1.0 - 2.0**-k) * math.factorial(k) * zeta[k + 1]
        got = sum(w * z**k for z, w in zip(nodes, weights))
        assert rel_err(got, want) <= 1e-14, k


def test_factored_kernels_match_the_high_precision_reference():
    # outside a window the kernels are O(b) over an O(1) range of x, and
    # R_B and R_D divide them by b: they need relative accuracy, which the
    # squared arguments of the defining ratios lose as b -> 0 (up to 5e-7
    # relative at b = 1e-8).  Inside a window, of width O(b), the kernels run from
    # one log singularity through zero to the other, and the integrals
    # need them only to an absolute 2e-13.  The quadrature's kernels, the
    # public r1 and r2 and the t = 0 closed forms' Fermi-surface logs are
    # held to the same reference.
    from relegas.medium_zero_t import _fermi_logs

    assert len(KERNEL_REFERENCE) >= 40
    inside = 0
    for (a, b, x), want in KERNEL_REFERENCE.items():
        p = derive_point(a, b)
        in_window = classify_region(p) is not RegionLabel.II and (
            kinematic_window(p)[0] < x < kinematic_window(p)[1]
        )
        inside += in_window
        for got in (
            medium_finite_t._log_kernels(x, p),
            (r1(x, p), r2(x, p)),
            _fermi_logs(p, x, math.sqrt(x * x - 1.0)),
        ):
            for g, w in zip(got, want):
                scale = max(abs(w), 1.0) if in_window else abs(w)
                assert abs(g - w) <= 2e-13 * scale, (a, b, x, g, w)
    assert inside >= 6


def test_factored_kernels_floor_a_zero_denominator():
    # at a = 0, b = 0.75 the node x = 1.25 has y = b exactly, so L2 = L4 = 0
    # and the denominator of r1 is exactly 0: it counts as 1e-300, and r1 is
    # log|num| - log(1e-300) with num = (c2 - b y)**2 = 1.265625
    p = derive_point(0.0, 0.75)
    assert math.sqrt(1.25 * 1.25 - 1.0) == 0.75
    num = (p.c2 - 0.75 * 0.75) ** 2
    assert num == 1.265625
    want = math.log(num) - math.log(1e-300)
    assert medium_finite_t._log_kernels(1.25, p) == (want, 0.0)

def test_cutoff_one_ulp_above_the_shell_is_an_empty_sea():
    # at t = 5.6e-18, xi = 1 the cutoff is 1 + 1 ulp, so no double lies
    # inside [1, cutoff] and the quadrature has no node: the medium parts
    # vanish as for the empty sea at t = 0
    ms = MediumState(t=5.6e-18, xi=1.0)
    assert x_cutoff(ms) == math.nextafter(1.0, 2.0)
    got = scalars_at(0.5, 0.3, ms, include_vacuum=False)[3]
    assert (got.B, got.D, got.A, got.C) == (0j, 0j, 0j, 0j)


def test_kernel_r1_vanishes_on_shell():
    # at x = 1 the integrand weight collapses for any timelike-window point
    p = derive_point(0.5, 1.0)
    assert r1(1.0, p) == 0.0
    p3 = derive_point(2.0, 1.0)
    assert r1(1.0, p3) == 0.0


def test_kernel_r2_vanishes_on_shell_and_at_zero_frequency():
    p = derive_point(0.5, 1.0)
    assert r2(1.0, p) == 0.0
    from relegas.kinematics import KinematicPoint

    a, b = 0.4, 0.9
    c2 = a * a - b * b
    plus = KinematicPoint(a=a, b=b, c2=c2, gamma2=1.0 - 1.0 / c2, d2=c2 + b * b / c2)
    minus = KinematicPoint(a=-a, b=b, c2=c2, gamma2=1.0 - 1.0 / c2, d2=c2 + b * b / c2)
    for x in (1.2, 1.7, 2.4):
        # r2 is odd in the frequency, r1 is even
        assert abs(r2(x, plus) + r2(x, minus)) < 1e-15
        assert r1(x, plus) == r1(x, minus)
    zero = KinematicPoint(
        a=0.0, b=b, c2=-b * b, gamma2=1.0 + 1.0 / (b * b), d2=-b * b - 1.0
    )
    assert r2(1.5, zero) == 0.0
    assert r1(1.5, zero) != 0.0


def test_region_two_has_exactly_zero_absorption():
    rng = random.Random(99)
    ms = MediumState(t=0.17, xi=0.9)
    for _ in range(60):
        c2 = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.1, 2.0)
        p = derive_point(math.sqrt(c2 + b * b), b)
        im_b, im_d = im_scalars(p, ms)
        assert im_b == 0.0
        assert im_d == 0.0


def test_absorption_signs():
    # region I: Im B > 0 (c2 < 0 flips the negative prefactor);
    # region III: Pauli blocking makes Im D < 0
    ms = MediumState(t=0.05, xi=1.2)
    im_b1, _ = im_scalars(derive_point(0.5, 1.0), ms)
    assert im_b1 > 0.0
    _, im_d3 = im_scalars(derive_point(2.0, 1.0), MediumState(t=0.1, xi=1.5))
    assert im_d3 < 0.0


def test_combination_a_identity():
    ms = MediumState(t=0.05, xi=1.2)
    for a, b in ((0.5, 1.0), (2.0, 1.0), (0.9, 0.7)):
        p, _, _, s = scalars_at(a, b, ms, include_vacuum=False)
        want = s.D + (1.0 + 3.0 * p.c2 / (2.0 * b * b)) * s.B
        assert complex_rel_err(s.A, want) < 1e-13


def test_low_t_converges_to_step_result():
    cold = scalars_at(0.5, 1.0, MediumState(t=0.0, xi=1.5), include_vacuum=False)[3]
    errs = []
    for t in (4e-3, 1e-3):
        warm = scalars_at(0.5, 1.0, MediumState(t=t, xi=1.5), include_vacuum=False)[3]
        errs.append(abs(warm.B - cold.B) / abs(cold.B))
    # Sommerfeld corrections are O(t^2): quartering t cuts the error
    assert errs[1] <= errs[0] / 2.0
    assert errs[1] < 1e-4


def test_cutoff_tail_is_negligible():
    ms = MediumState(t=0.3, xi=0.5)
    p = derive_point(0.9, 0.7)
    hi = x_cutoff(ms)

    def tail(x: float) -> float:
        return n_fermi(x, ms) * abs(r1(x, p))

    bulk = integrate_adaptive(per_node(tail), 1.0, hi, rel_tol=1e-10).value
    beyond = integrate_adaptive(per_node(tail), hi, hi + 200.0 * ms.t, rel_tol=1e-8).value
    assert beyond <= 1e-16 * bulk


def test_real_parts_scale_with_coupling():
    p = derive_point(0.5, 1.0)
    weak = re_scalars(p, MediumState(t=0.05, xi=1.2, alpha=0.005))
    strong = re_scalars(p, MediumState(t=0.05, xi=1.2, alpha=0.01))
    assert rel_err(strong[0], 2.0 * weak[0]) < 1e-12
    assert rel_err(strong[1], 2.0 * weak[1]) < 1e-12


def _composed_kernel(x, p, ms, region):
    # the five integrands of the fused pass, built from n_fermi and the
    # factored kernels
    n = n_fermi(x, ms)
    if x < x_cutoff(ms):
        k1, k2 = medium_finite_t._log_kernels(x, p)
        big = n * math.sqrt(x * x - 1.0)
        k_b = n * ((x * x + p.c2) * k1 + 4.0 * p.a * x * k2)
        k_d = n * k1
    else:
        big = k_b = k_d = 0.0
    if region is not RegionLabel.II:
        lower, upper = kinematic_window(p)
        if lower < x < upper:
            shift = p.a if region is RegionLabel.I else -p.a
            return big, k_b, k_d, n * ((x + shift) ** 2 - p.b * p.b), n
    return big, k_b, k_d, 0.0, 0.0


# every cell of these states keeps the thermal-tail plan: at t = 1e-3 the
# Fermi edges lie 10 t and 15 t above the mass shell, below the 18 t of
# the Gauss-Fermi gate, and at t = 0.05 only 4 t
_PIN_STATES = [
    MediumState(t=t, xi=xi)
    for t, xis in ((0.0, (1.2,)), (1e-3, (1.01, 0.0, -1.015)), (0.05, (1.2, 0.0, -1.1)),
                   (1.0, (1.2, 0.0, -1.1)))
    for xi in xis
]
# 2.2/0.07 = 31 widths: the smaller Fermi term still moves bits, and the
# integrand must add it
_PIN_STATES.append(MediumState(t=0.07, xi=1.2))
_PIN_POINTS = [
    (0.5, 1.0), (0.05, 0.3), (0.8, 0.3), (0.01, 1e-6),
    (2.0, 1.0), (1.5, 0.4), (0.2, 0.5), (3.0, 2.5),
]


def _gated(p, ms, region):
    # whether _parts integrates the Fermi edge by the Gauss-Fermi rule
    window = kinematic_window(p) if region is not RegionLabel.II else (0.0, 0.0)
    return medium_finite_t._isolated_edge(p, region, *window, ms.t, abs(ms.xi))


def _axis(p, ms, region):
    # (t0, top, tail map) of the quadrature's axis: x on [1, t0], then at
    # t > 0 the thermal tail [t0, cutoff] as the panel [t0, t0 + 1] in
    # s = z - t0, where t0 is the largest of 1, |xi| and the window edges
    # below the cutoff; without a tail, x up to top = t0.  |xi| is left
    # out when it lies within _FERMI_MERGE t above the largest of 1 and
    # the window edges below it
    hi = x_cutoff(ms)
    if ms.t == 0.0:
        return hi, hi, None
    edges = kinematic_window(p) if region is not RegionLabel.II else []
    edges = [e for e in edges if e < hi]
    axi = abs(ms.xi)
    below = max([1.0] + [e for e in edges if e < axi])
    if axi < hi and not 0.0 < axi - below <= medium_finite_t._FERMI_MERGE * ms.t:
        edges.append(axi)
    t0 = max([1.0] + edges)
    if not t0 < 0.5 * (t0 + hi) < hi:
        return t0, t0, None
    top = t0 + 1.0
    return t0, top, medium_finite_t._tail_map(t0, top, hi, ms.t)


def _physical(zs, ws, axis):
    # the x nodes and weights behind one call of the quadrature
    t0, _, tail = axis
    return tail(zs, ws) if zs[0] > t0 else (zs, ws)


def _composed_sums(xs, ws, p, ms, region):
    rows = [_composed_kernel(x, p, ms, region) for x in xs]
    if not rows:
        return (0.0,) * 5
    return tuple(sum(map(mul, ws, col)) for col in zip(*rows))


def _fused_sums(composed, region):
    # the sums a fused call returns: a region-II pass has only the three
    # real components, as the composed Im sums there are exactly 0.0
    if region is RegionLabel.II:
        assert composed[3:] == (0.0, 0.0)
        return composed[:3]
    return composed


def test_fused_integrand_equals_public_kernels(monkeypatch):
    # the quadrature's integrand inlines n_fermi and _log_kernels; called
    # on one node, it must give their bits exactly (times the tail map's
    # weight on the tail), at random nodes and at nodes within 1e-12 of the
    # window edges, the Fermi edge xi and both ends of the tail
    captured = []

    def capture(f, lo, hi, breakpoints=(), rel_tol=1e-10):
        captured.append((f, lo, hi))
        return QuadratureResult((0.0,) * 5, (0.0,) * 5, 0, True)

    monkeypatch.setattr(medium_finite_t, "integrate_adaptive", capture)
    rng = random.Random(1010)
    nodes = tail_nodes = 0
    regions = set()
    for ms in _PIN_STATES:
        hi = x_cutoff(ms)
        for a, b in _PIN_POINTS:
            p = derive_point(a, b)
            region = classify_region(p)
            regions.add(region)
            assert not _gated(p, ms, region), (a, b, ms)
            captured.clear()
            medium_finite_t._parts(p, ms, region)
            (kernel, lo, top), = captured
            t0, want_top, tail = axis = _axis(p, ms, region)
            assert (lo, top) == (1.0, want_top)
            edges = [abs(ms.xi), t0]
            if region is not RegionLabel.II:
                edges += kinematic_window(p)
            xs = [rng.uniform(lo, t0) for _ in range(40)]
            for e in edges:
                xs += [e, e + 1e-12, e - 1e-12]
                xs += [e + rng.uniform(-1e-12, 1e-12) for _ in range(3)]
            zs = [x for x in xs if 1.0 <= x < t0]
            if tail is not None:
                ss = [rng.random() for _ in range(40)] + [1e-12, 1.0 - 1e-12]
                ss += [rng.uniform(0.0, 1e-12) for _ in range(3)]
                ss += [1.0 - rng.uniform(0.0, 1e-12) for _ in range(3)]
                zs += [t0 + s for s in ss if 0.0 < s < top - t0]
            e_tail = Fraction(math.exp(-(hi - t0) / ms.t)) if ms.t else 0
            for z in zs:
                xs, ws = _physical([z], [1.0], axis)
                if z > t0:
                    # x = t0 - t ln(S - s (1 - E)) and dx/ds = t (1 - E)/(S - s (1 - E)),
                    # S = top - t0 = 1 to an ulp, with S - s (1 - E) exact: no
                    # digits may be lost at either end of the tail
                    s = Fraction(z) - Fraction(t0)
                    d = float(Fraction(top) - Fraction(t0) - s * (1 - e_tail))
                    for x, w in zip(xs, ws):
                        assert t0 < x < hi
                        assert abs(x - (t0 - ms.t * math.log(d))) <= 4.0 * math.ulp(hi), (z, x)
                        assert rel_err(w, float(ms.t * (1 - e_tail)) / d) <= 1e-14, (z, w)
                    tail_nodes += 1
                got = kernel([z], [1.0])
                want = _fused_sums(_composed_sums(xs, ws, p, ms, region), region)
                assert got == want, (a, b, ms, z)
                nodes += 1
    assert regions == set(RegionLabel)
    assert nodes >= 2000
    assert tail_nodes >= 1000


def test_fused_integrand_sums_equal_per_node_sums(monkeypatch):
    # the engine hands the integrand one level of one panel per call, and
    # the fused kernel decides the tail map, the t = 0 step and the window
    # once per call; on every call of the real engine its sums must be
    # the node-order weighted sums of the composed per-node kernel at the
    # physical nodes and weights
    integrate = medium_finite_t.integrate_adaptive
    nodes = tail_nodes = 0

    def checked_integrate(f, *args, **kwargs):
        def checked(zs, ws):
            nonlocal nodes, tail_nodes
            got = f(zs, ws)
            xs, mws = _physical(zs, ws, axis)
            want = _fused_sums(_composed_sums(xs, mws, p, ms, region), region)
            assert got == want, (a, b, ms, zs[0])
            nodes += len(xs)
            tail_nodes += len(xs) if zs[0] > axis[0] else 0
            return got

        return integrate(checked, *args, **kwargs)

    monkeypatch.setattr(medium_finite_t, "integrate_adaptive", checked_integrate)
    for ms in _PIN_STATES:
        for a, b in _PIN_POINTS:
            p = derive_point(a, b)
            region = classify_region(p)
            assert not _gated(p, ms, region), (a, b, ms)
            axis = _axis(p, ms, region)
            medium_finite_t._parts(p, ms, region)
    assert nodes >= 10000
    assert tail_nodes >= 1000


# the six states of the benchmark's warm map, with the Fermi edges of the
# two coldest moved from 20 t and 200 t above the mass shell to 15 t and
# 10 t, below the Gauss-Fermi gate, so that every cell has a thermal tail
_TAIL_STATES = [(0.05, 1.2), (1.0, 0.0), (0.3, 0.5), (0.01, 1.15), (1e-3, 1.01), (0.2, -1.1)]


def _tail_start(p, ms, region):
    t0, _, tail = _axis(p, ms, region)
    if tail is None:
        return "none"
    return "1" if t0 == 1.0 else "xi" if t0 == abs(ms.xi) else "edge"


def test_mapped_tail_matches_an_unmapped_tight_quadrature(monkeypatch):
    # every panel of _parts ends at the cutoff and its last one is mapped;
    # each of the five integrals must still match, to 1e-10, a plain
    # quadrature of the composed per-node kernel over [1, cutoff] with every
    # edge a breakpoint, at rel_tol = 1e-13, and each call must converge
    results = []
    integrate = medium_finite_t.integrate_adaptive

    def recorded(*args, **kwargs):
        results.append(integrate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(medium_finite_t, "integrate_adaptive", recorded)
    rng = random.Random(2024)
    cells = []
    for t, xi in _TAIL_STATES:
        ms = MediumState(t=t, xi=xi)
        # a and b log-uniform in [1e-3, 4], as in the warm map, 3 per bin of a
        for lo_a, hi_a in ((1e-3, 0.01), (0.01, 0.1), (0.1, 1.0), (1.0, 4.0)):
            drawn = 0
            while drawn < 3:
                a = math.exp(rng.uniform(math.log(lo_a), math.log(hi_a)))
                b = math.exp(rng.uniform(math.log(1e-3), math.log(4.0)))
                if abs(a - b) < 1e-3 * b or abs(a * a - b * b - 1.0) < 1e-3:
                    continue
                cells.append((derive_point(a, b), ms))
                drawn += 1
    seen = set()
    for p, ms in cells:
        region = classify_region(p)
        assert not _gated(p, ms, region), (p, ms)
        seen.add((region, _tail_start(p, ms, region)))
        results.clear()
        medium_finite_t._parts(p, ms, region)
        (res,) = results
        assert res.converged, (p, ms)
        hi = x_cutoff(ms)
        edges = [abs(ms.xi)]
        if region is not RegionLabel.II:
            edges += kinematic_window(p)
        want = integrate(
            per_node(lambda x: _composed_kernel(x, p, ms, region)),
            1.0, hi, breakpoints=edges, rel_tol=1e-13,
        )
        for got, ref in zip(res.value, want.value):
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-300), (p, ms, got, ref)
    assert {r for r, _ in seen} == set(RegionLabel)
    assert {s for _, s in seen} == {"1", "xi", "edge"}


def test_window_above_the_cutoff_has_no_absorption():
    # the integrals stop at the cutoff, so a window wholly above it
    # contributes exactly nothing, not an exp(-40) remainder
    ms = MediumState(t=0.01, xi=1.2)
    for (a, b), region in (((3.0, 1.0), RegionLabel.III), ((0.1, 3.0), RegionLabel.I)):
        p = derive_point(a, b)
        assert classify_region(p) is region
        assert kinematic_window(p)[0] > x_cutoff(ms)
        assert im_scalars(p, ms) == (0.0, 0.0)
        assert 0.0 not in re_scalars(p, ms)


def test_non_finite_tail_value_names_its_x(monkeypatch):
    # a NaN in the tail panel is reported at its x, not at the
    # quadrature's variable s of that panel
    ms = MediumState(t=0.05, xi=1.2)
    p = derive_point(0.8, 0.3)
    region = classify_region(p)
    assert not _gated(p, ms, region)
    t0, _, tail = _axis(p, ms, region)
    assert tail is not None and t0 == ms.xi
    poisoned = set()

    def sqrt(v):
        if v > t0 * t0 - 1.0:
            poisoned.add(v)
            return math.nan
        return math.sqrt(v)

    monkeypatch.setattr(medium_finite_t, "sqrt", sqrt)
    with pytest.raises(ValueError, match="x = ") as err:
        medium_finite_t._parts(p, ms, region)
    x = float(str(err.value).rsplit("x = ", 1)[1])
    assert t0 < x < x_cutoff(ms)
    assert x * x - 1.0 in poisoned


def test_non_finite_gauss_fermi_value_names_its_x(monkeypatch):
    # a NaN at a node of the Gauss-Fermi rule above the Fermi edge (the
    # quadrature's nodes all lie below it) raises, naming that node's x
    ms = MediumState(t=0.01, xi=1.2)
    p = derive_point(0.8, 0.3)
    region = classify_region(p)
    assert _gated(p, ms, region)
    poisoned = set()

    def sqrt(v):
        if v > ms.xi * ms.xi - 1.0:
            poisoned.add(v)
            return math.nan
        return math.sqrt(v)

    monkeypatch.setattr(medium_finite_t, "sqrt", sqrt)
    with pytest.raises(ValueError, match="x = ") as err:
        medium_finite_t._parts(p, ms, region)
    x = float(str(err.value).rsplit("x = ", 1)[1])
    assert x in [ms.xi + ms.t * z for z in medium_finite_t._GF_NODES]
    assert x * x - 1.0 in poisoned


def test_region_ii_gate_survives_a_huge_chemical_potential():
    # the region-II gate squared |xi| - a, which overflows from |xi| ~
    # 1.3e154 and escaped as an OverflowError traceback; it now tests
    # |xi| - a >= 30 t first, and wherever the square is finite it decides
    # as the square alone did
    p = derive_point(0.5, 0.3)
    region = classify_region(p)
    assert region is RegionLabel.II
    for xi in (1e154, 1.4e154, 1e200, -1e300):
        assert _gated(p, MediumState(t=1.0, xi=xi), region)
    rng = random.Random(1540)
    decided = []
    while len(decided) < 2000:
        p = draw_valid_point(rng)
        if classify_region(p) is not RegionLabel.II or p.b < 1e-3 * p.a:
            continue
        t = 10.0 ** rng.uniform(-3.0, -1.0)
        far = medium_finite_t._EDGE_WIDTHS * t
        # |xi| - a about where the square meets (30 t)**2, or 30 t
        gap = math.sqrt(max(far * far + p.b * p.b * p.gamma2, 0.0))
        gap = rng.choice((gap, far)) * rng.uniform(0.8, 1.2)
        axi = p.a + rng.choice((1.0, -1.0)) * gap
        if axi - 1.0 < medium_finite_t._SHELL_WIDTHS * t:
            continue
        want = (axi - p.a) ** 2 - p.b * p.b * p.gamma2 >= far * far
        assert medium_finite_t._isolated_edge(p, region, 0.0, 0.0, t, axi) == want
        decided.append((want, abs(axi - p.a) >= far))
    assert set(decided) == {(False, False), (True, False), (True, True)}


def test_parts_are_even_in_xi():
    # n_F is even in xi, so a state and its mirror give the same bits; at
    # xi < -1 the occupation is ~1 up to the Fermi edge |xi|, which must be
    # a panel edge and must not lie inside the mapped tail
    rng = random.Random(77)
    for t, xi in ((1e-3, 1.5), (0.01, 1.5), (0.2, 1.1), (1.0, 0.3)):
        for _ in range(8):
            p = draw_valid_point(rng, a_max=4.0, b_max=4.0)
            region = classify_region(p)
            parts = medium_finite_t._parts(p, MediumState(t=t, xi=xi), region)
            assert medium_finite_t._parts(p, MediumState(t=t, xi=-xi), region) == parts, (p, t, xi)


def test_smooth_fermi_edge_joins_the_tail(monkeypatch):
    # at t > 0 a Fermi edge |xi| within _FERMI_MERGE t above the largest of
    # 1 and the window edges below it is no panel edge, for both signs of
    # xi, and the five integrals still match a tight quadrature that cuts
    # there; a sharp edge (t = 1e-3, |xi| = 1.01, 10 t above 1, where the
    # Gauss-Fermi rule does not take it) and one 4 t above 1 keep their cut
    calls = []
    integrate = medium_finite_t.integrate_adaptive

    def recorded(f, lo, hi, breakpoints=(), rel_tol=1e-10):
        calls.append((list(breakpoints), integrate(f, lo, hi, breakpoints, rel_tol)))
        return calls[-1][1]

    monkeypatch.setattr(medium_finite_t, "integrate_adaptive", recorded)
    region_two = derive_point(0.3, 0.25)
    pair = derive_point(2.0, 1.0)
    lower, upper = kinematic_window(pair)
    cases = [
        (region_two, 0.2, 1.1, False),
        (region_two, 0.05, 1.09, False),
        (region_two, 1e-3, 1.01, True),
        (region_two, 0.05, 1.2, True),
        # 1 t above the lower window edge, with the upper one above |xi|
        (pair, 0.05, lower + 0.05, False),
    ]
    for p, t, axi, cut in cases:
        region = classify_region(p)
        for xi in (axi, -axi):
            ms = MediumState(t=t, xi=xi)
            calls.clear()
            got = medium_finite_t._parts(p, ms, region)
            (breakpoints, res), = calls
            assert (axi in breakpoints) is cut, (p, ms)
            assert res.converged
            if cut:
                continue
            edges = [axi] + (list(kinematic_window(p)) if region is not RegionLabel.II else [])
            want = integrate(
                per_node(lambda x: _composed_kernel(x, p, ms, region)),
                1.0, x_cutoff(ms), breakpoints=edges, rel_tol=1e-13,
            )
            for g, w in zip(res.value, want.value):
                assert abs(g - w) <= 1e-10 * max(abs(w), 1e-300), (p, ms, g, w)
            assert got == medium_finite_t._parts(p, MediumState(t=t, xi=-xi), region)
